"""Graceful degradation: stage failures change wall time, never suspects.

Every test injects a fault through :mod:`repro.resilience.faults`,
runs the pipeline (batch or online), and asserts the run (a) completes,
(b) produces exactly the clean run's suspects, and (c) reports the
degradation — the contract: no silent fallback, no changed verdicts,
no dead run.  A stage without a fallback rung (the four detection
stages) fails the run loudly instead.
"""

import pytest

from repro import obs
from repro.detection.incremental import OnlineDetector
from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.resilience.faults import InjectedFault, injected

from .test_torn_checkpoint import CONFIG, HOSTS, WINDOW, flow, window_flows


@pytest.fixture(scope="module")
def clean_result(overlaid_day, campus_day):
    return find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)


class TestBatchPipeline:
    def test_clean_run_reports_no_degradations(self, clean_result):
        assert clean_result.degradations == ()
        assert not clean_result.degraded

    def test_theta_hm_failure_is_fatal(self, overlaid_day, campus_day):
        # θ_hm has no fallback rung: an injected failure surfaces.
        with injected(stage_fail={"theta_hm": 1}):
            with pytest.raises(InjectedFault, match="theta_hm"):
                find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)

    def test_extraction_failure_falls_back_identically(
        self, overlaid_day, campus_day, clean_result
    ):
        with injected(stage_fail={"extract_features": 1}):
            result = find_plotters(
                overlaid_day.store,
                hosts=campus_day.all_hosts,
                config=PipelineConfig(n_workers=2),
            )
        assert result.suspects == clean_result.suspects
        assert result.volume.selected_set == clean_result.volume.selected_set
        assert any(
            d.stage == "extract_features" for d in result.degradations
        )

    def test_no_degrade_makes_first_failure_fatal(
        self, overlaid_day, campus_day
    ):
        config = PipelineConfig(degrade=False)
        with injected(stage_fail={"theta_hm": 1}):
            with pytest.raises(InjectedFault):
                find_plotters(
                    overlaid_day.store,
                    hosts=campus_day.all_hosts,
                    config=config,
                )

    def test_checkpoint_io_error_disables_checkpointing(
        self, overlaid_day, campus_day, clean_result, tmp_path
    ):
        config = PipelineConfig(checkpoint_dir=str(tmp_path))
        with injected(io_errors=["checkpoint"]):
            result = find_plotters(
                overlaid_day.store, hosts=campus_day.all_hosts, config=config
            )
        assert result.suspects == clean_result.suspects
        assert any(
            d.stage == "extract_checkpoint"
            and d.to_mode == "no-checkpoint"
            for d in result.degradations
        )

    def test_worker_death_survived_by_pool_restart(
        self, overlaid_day, campus_day, clean_result, tmp_path
    ):
        sentinel = tmp_path / "kill-once"
        sentinel.touch()
        config = PipelineConfig(n_workers=2)
        with injected(extract_kill_once=str(sentinel)):
            result = find_plotters(
                overlaid_day.store, hosts=campus_day.all_hosts, config=config
            )
        assert not sentinel.exists()  # exactly one worker claimed it
        assert result.suspects == clean_result.suspects
        assert any(
            d.stage == "extract_pool" and d.to_mode == "pool-restart"
            for d in result.degradations
        )

    def test_degradations_counted_in_metrics(
        self, overlaid_day, campus_day
    ):
        obs.clear_sinks()
        obs.get_registry().reset()
        obs.enable()
        try:
            with injected(stage_fail={"extract_features": 1}):
                find_plotters(
                    overlaid_day.store,
                    hosts=campus_day.all_hosts,
                    config=PipelineConfig(n_workers=2),
                )
            counter = obs.get_registry().counter(
                "repro_stage_degradations_total",
                labels=("stage", "to_mode"),
            )
            assert (
                counter.value(stage="extract_features", to_mode="sequential")
                == 1.0
            )
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.clear_sinks()

    def test_degradation_span_event_reaches_sinks(
        self, overlaid_day, campus_day
    ):
        events = []

        class Sink:
            def on_span(self, record):
                events.append(record)

        obs.clear_sinks()
        obs.get_registry().reset()
        obs.enable()
        obs.add_sink(Sink())
        try:
            with injected(stage_fail={"extract_features": 1}):
                find_plotters(
                    overlaid_day.store,
                    hosts=campus_day.all_hosts,
                    config=PipelineConfig(n_workers=2),
                )
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.clear_sinks()
        degradations = [e for e in events if e.get("name") == "degradation"]
        assert len(degradations) == 1
        attrs = degradations[0]["attrs"]
        assert attrs["stage"] == "extract_features"
        assert attrs["to_mode"] == "sequential"


class TestOnlineDetector:
    def run_windows(self, detector, n=2):
        for w in range(n):
            detector.ingest_many(window_flows(w))
        detector.ingest(flow("bot0", start=n * WINDOW + 1.0))

    def test_verdict_log_failure_degrades_not_dies(self, tmp_path):
        detector = OnlineDetector(
            HOSTS, window=WINDOW, config=CONFIG, checkpoint_dir=tmp_path
        )
        with injected(io_errors=["verdict-log"]):
            self.run_windows(detector)
        # The run completed: both windows concluded in memory…
        assert len(detector.history) == 2
        # …the log was dropped loudly…
        assert any(d.stage == "verdict_log" for d in detector.degradations)
        assert detector._verdict_log is None
        # …and nothing half-written hit the disk.
        log = tmp_path / "verdicts.jsonl"
        assert not log.exists() or log.read_text() == ""

    def test_verdict_log_failure_fatal_without_degrade(self, tmp_path):
        config = PipelineConfig(
            reduction_percentile=10.0, vol_percentile=90.0, degrade=False
        )
        detector = OnlineDetector(
            HOSTS, window=WINDOW, config=config, checkpoint_dir=tmp_path
        )
        with injected(io_errors=["verdict-log"]):
            with pytest.raises(OSError):
                self.run_windows(detector)
