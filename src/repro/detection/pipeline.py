"""FindPlotters — the composed detection pipeline (Figure 4).

    FindPlotters(Λ, S):
      S_vol   ← θ_vol(Λ, S, τ_vol)        # low traffic volume
      S_churn ← θ_churn(Λ, S, τ_churn)    # low peer churn
      S_hm    ← θ_hm(Λ, S_vol ∪ S_churn, τ_hm)
      return S_hm

The evaluation applies the initial data-reduction step of §V-A first to
form S.  :func:`run_stages` is the one implementation of that
composition — reduction, then θ_vol ∪ θ_churn, then θ_hm — over
per-host feature bundles, recording every intermediate set so the
Figure 9 funnel can be reproduced, and the stage spans and
``repro_stage_*`` gauges in one place.  :func:`find_plotters` extracts
the bundles from a flow store and calls it; the online detector
(:mod:`repro.detection.incremental`) calls it on streamed bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Set, Tuple

from ..flows.metrics import HostFeatures
from ..flows.parallel import extract_features_parallel
from ..flows.store import FlowStore
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from ..resilience import Degradation, StageGuard, faults
from ..stats.emd import PAIRWISE_BACKENDS
from .churn import theta_churn
from .humanmachine import HistogramSource, theta_hm
from .reduction import initial_data_reduction
from .testbase import TestResult
from .volume import theta_vol

__all__ = ["PipelineConfig", "PipelineResult", "find_plotters", "run_stages"]

# The Figure 9 funnel as a metric stream: per stage, how many hosts
# entered, how many survived, and the dynamic threshold applied.
_RUNS = obs_metrics.counter(
    "repro_pipeline_runs_total", "FindPlotters invocations"
)
_STAGE_INPUT = obs_metrics.gauge(
    "repro_stage_input_hosts",
    "Hosts entering a pipeline stage (last run)",
    labels=("stage",),
)
_STAGE_SURVIVING = obs_metrics.gauge(
    "repro_stage_surviving_hosts",
    "Hosts surviving a pipeline stage (last run)",
    labels=("stage",),
)
_STAGE_THRESHOLD = obs_metrics.gauge(
    "repro_stage_threshold",
    "Dynamic threshold a pipeline stage applied (last run)",
    labels=("stage",),
)


def _stage(
    stage: str, n_in: int, test: Callable[[], TestResult], **attrs
) -> TestResult:
    """Run one detection stage under its span, fault point and gauges."""
    with span(stage, input_hosts=n_in, **attrs) as s:
        faults.stage_call(stage)
        result = test()
        n_out = len(result.selected)
        s.set(surviving_hosts=n_out, threshold=result.threshold)
    _STAGE_INPUT.set(n_in, stage=stage)
    _STAGE_SURVIVING.set(n_out, stage=stage)
    _STAGE_THRESHOLD.set(result.threshold, stage=stage)
    return result


@dataclass(frozen=True)
class PipelineConfig:
    """Threshold percentiles of the full pipeline.

    Defaults are the operating point the paper settles on in §V-B: the
    50th percentile for τ_vol and τ_churn, a high percentile of cluster
    diameters for τ_hm (the paper uses the 70th; we default to the 85th,
    which at our smaller campus population sits at the same point of
    the TP/FP trade — see the Figure 8 sweep), the 5% dendrogram link
    cut, and the median for the data-reduction cutoff.
    """

    reduction_percentile: float = 50.0
    vol_percentile: float = 50.0
    churn_percentile: float = 50.0
    hm_percentile: float = 85.0
    hm_cut_fraction: float = 0.05
    hm_log_scale: bool = True
    #: Pairwise-EMD engine for θ_hm ("auto", "vectorized", "pruned") —
    #: both engines yield the same clustering result; "pruned" skips
    #: provably irrelevant host pairs (see :mod:`repro.stats.emdindex`),
    #: "vectorized" computes the full matrix, and "auto" switches from
    #: the one to the other at ``PRUNED_MIN_HOSTS`` hosts.
    hm_backend: str = "auto"
    apply_reduction: bool = True
    #: Worker processes for feature extraction (0/1 = in-process
    #: vectorized; >1 = multi-process via
    #: :mod:`repro.flows.parallel`).  Every setting yields identical
    #: features and hence identical suspects.
    n_workers: int = 0
    #: Directory for per-shard extraction checkpoints (None = no
    #: checkpointing); with ``resume`` a restarted run skips shards
    #: whose checkpoint is intact.
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    #: Segment-store directory for out-of-core extraction (None = stay
    #: in memory).  When set and the pipeline is handed an in-memory
    #: store, its rows are spooled into segments there once and
    #: extraction runs store-backed — per-shard memory-mapped gathers
    #: instead of a whole-trace snapshot.  A pipeline handed a
    #: :class:`repro.storage.StoreView` is store-backed regardless.
    #: Either way the features, thresholds, and suspects are
    #: bit-identical to the in-memory run; storage failures degrade
    #: back to the in-memory ladder under the stage guard.
    store_dir: Optional[str] = None
    #: Segment cut threshold (rows) used when spooling to ``store_dir``.
    segment_rows: int = 262_144
    #: Graceful degradation: when True (the default) a
    #: :class:`~repro.resilience.StageGuard` steps failed stages down
    #: their declared fallback ladder (parallel extraction → sequential,
    #: spooled → in-memory extraction, checkpointing → none) instead of
    #: aborting the run; every step is recorded in
    #: :attr:`PipelineResult.degradations`.  ``False`` (the CLI's
    #: ``--no-degrade``) makes the first stage failure fatal.
    degrade: bool = True

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside pairwise_emd: a typo'd
        # backend would otherwise surface only after the cheap stages
        # already ran.
        if self.hm_backend not in PAIRWISE_BACKENDS:
            raise ValueError(
                f"unknown hm_backend {self.hm_backend!r}; expected one of "
                f"{PAIRWISE_BACKENDS}"
            )
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        if self.segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")


@dataclass(frozen=True)
class PipelineResult:
    """All intermediate and final host sets of one FindPlotters run."""

    input_hosts: frozenset
    reduction: Optional[TestResult]
    volume: TestResult
    churn: TestResult
    hm: TestResult
    #: Every graceful-degradation event of the run (empty on a clean
    #: run) — the resilience part of the run summary.  Silent fallback
    #: is impossible: anything here was also logged at WARNING, counted
    #: in ``repro_stage_degradations_total`` and emitted as a
    #: ``degradation`` span event.
    degradations: Tuple[Degradation, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether any stage ran in a fallback mode."""
        return bool(self.degradations)

    @property
    def reduced_hosts(self) -> Set[str]:
        """S — the hosts surviving initial data reduction."""
        if self.reduction is None:
            return set(self.input_hosts)
        return self.reduction.selected_set

    @property
    def union_vol_churn(self) -> Set[str]:
        """S_vol ∪ S_churn — the input to θ_hm."""
        return self.volume.selected_set | self.churn.selected_set

    @property
    def suspects(self) -> Set[str]:
        """S_hm — the hosts FindPlotters reports as likely Plotters."""
        return self.hm.selected_set

    def funnel(self):
        """The per-stage attrition of this run as a list of dicts.

        Same shape as :func:`repro.obs.export.funnel_snapshot`
        (``stage`` / ``input_hosts`` / ``surviving_hosts`` /
        ``threshold``) but read off the result itself, so it is exact
        per-run even when several runs share one metrics registry —
        this is what the run ledger records.
        """
        stages = []
        if self.reduction is not None:
            stages.append(("reduction", len(self.input_hosts), self.reduction))
        n_reduced = len(self.reduced_hosts)
        stages.append(("theta_vol", n_reduced, self.volume))
        stages.append(("theta_churn", n_reduced, self.churn))
        stages.append(("theta_hm", len(self.union_vol_churn), self.hm))
        return [
            {
                "stage": stage,
                "input_hosts": n_in,
                "surviving_hosts": len(result.selected_set),
                "threshold": result.threshold,
            }
            for stage, n_in, result in stages
        ]


def _extract_attempts(store, hosts, config, guard):
    """The extraction fallback ladder, as (mode, thunk) pairs.

    The primary mode is whatever the config asked for (the parallel
    engine already warm-restarts a broken pool between its retry waves
    and steps down to no-checkpoint on checkpoint-dir I/O errors,
    reporting both through the guard).  If a pooled or checkpointed
    engine still fails — workers dying faster than the retry policy
    tolerates — the ladder falls back to in-process sharded
    extraction.  Every rung produces bit-identical features, so
    degrading changes wall time, never suspects.

    **Storage rungs.**  A store exposing ``parallel_spec`` (a
    :class:`repro.storage.StoreView`) runs the same ladder against the
    segment plane.  An in-memory store with ``config.store_dir`` set
    gets a leading *spool* rung (spill to segments, extract
    store-backed); any storage failure there — unwritable directory,
    torn segment, gather over the memory budget — steps down to the
    ordinary in-memory ladder, since the trace demonstrably fits in RAM.
    """
    primary_mode = (
        f"parallel[{config.n_workers}]" if config.n_workers > 1 else "in-process"
    )
    store_backed = getattr(store, "parallel_spec", None) is not None
    prefix = "store-" if store_backed else ""
    primary = dict(
        n_workers=config.n_workers,
        checkpoint_dir=config.checkpoint_dir,
        resume=config.resume,
    )

    def engine_on(target, **options):
        def run():
            return extract_features_parallel(
                target, hosts, on_degrade=guard.note, **options
            )

        return run

    attempts = []
    if config.store_dir is not None and not store_backed:

        def spooled():
            from ..storage import spool_flow_store

            view = spool_flow_store(
                store, config.store_dir, segment_rows=config.segment_rows
            )
            return engine_on(view, **primary)()

        attempts.append((f"store-{primary_mode}", spooled))
    attempts.append((prefix + primary_mode, engine_on(store, **primary)))
    if config.n_workers > 1 or config.checkpoint_dir is not None:
        attempts.append((prefix + "sequential", engine_on(store, n_workers=0)))
    return attempts


def run_stages(
    features: Mapping[str, HostFeatures],
    hosts: Set[str],
    config: PipelineConfig = PipelineConfig(),
    histograms: Optional[HistogramSource] = None,
) -> PipelineResult:
    """Reduction → θ_vol ∪ θ_churn → θ_hm over per-host feature bundles.

    The one implementation of the FindPlotters composition, shared by
    the batch pipeline and the online detector.  ``hosts`` are the
    candidates (hosts without a bundle initiated nothing and never
    survive a stage); ``histograms`` is θ_hm's histogram source (see
    :data:`repro.detection.humanmachine.HistogramSource`; default:
    built from the bundles' interstitials).  Each stage runs under its
    own span and fault-injection point and refreshes the
    ``repro_stage_*`` funnel gauges.
    """
    hosts = set(hosts)
    reduction: Optional[TestResult] = None
    working = hosts
    if config.apply_reduction:
        reduction = _stage(
            "reduction",
            len(hosts),
            lambda: initial_data_reduction(
                features, hosts, config.reduction_percentile
            ),
        )
        working = reduction.selected_set
    volume = _stage(
        "theta_vol",
        len(working),
        lambda: theta_vol(features, working, config.vol_percentile),
    )
    churn = _stage(
        "theta_churn",
        len(working),
        lambda: theta_churn(features, working, config.churn_percentile),
    )
    union = volume.selected_set | churn.selected_set
    hm = _stage(
        "theta_hm",
        len(union),
        lambda: theta_hm(
            features,
            union,
            percentile=config.hm_percentile,
            cut_fraction=config.hm_cut_fraction,
            log_scale=config.hm_log_scale,
            backend=config.hm_backend,
            histograms=histograms,
        ),
        backend=config.hm_backend,
    )
    return PipelineResult(
        input_hosts=frozenset(hosts),
        reduction=reduction,
        volume=volume,
        churn=churn,
        hm=hm,
    )


def find_plotters(
    store: FlowStore,
    hosts: Optional[Set[str]] = None,
    config: PipelineConfig = PipelineConfig(),
    guard: Optional[StageGuard] = None,
) -> PipelineResult:
    """Run the full detection pipeline over one window of traffic.

    Parameters
    ----------
    store:
        The traffic Λ.
    hosts:
        The internal hosts to consider (default: all initiators in Λ —
        in practice pass the internal-host set so external addresses are
        never candidates).
    config:
        Threshold percentiles; see :class:`PipelineConfig`.
    guard:
        Stage supervisor to record degradations on (default: a fresh
        :class:`~repro.resilience.StageGuard`, enabled per
        ``config.degrade``).  Pass a shared guard to accumulate one
        resilience summary across several runs.
    """
    if hosts is None:
        hosts = store.initiators
    hosts = set(hosts)
    if guard is None:
        guard = StageGuard(enabled=config.degrade, name="find_plotters")
    degradations_before = len(guard.degradations)

    with span("find_plotters", input_hosts=len(hosts)) as root:
        _RUNS.inc()

        # Extract every per-host feature bundle once up front — sharded
        # and optionally multi-process/checkpointed — then run the
        # stages off the bundles.  The engine is pinned bit-identical
        # to the per-host reference extractor, so thresholds and
        # suspects are unchanged for every n_workers setting.
        # Extraction failures walk the fallback ladder under the guard.
        with span(
            "extract_features", hosts=len(hosts), workers=config.n_workers
        ):
            features = guard.run(
                "extract_features",
                _extract_attempts(store, hosts, config, guard),
            )
        result = run_stages(features, hosts, config)
        degradations = guard.degradations[degradations_before:]
        root.set(
            suspects=len(result.suspects), degradations=len(degradations)
        )
    return replace(result, degradations=degradations)
