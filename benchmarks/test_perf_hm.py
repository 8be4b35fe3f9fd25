"""Perf harness for the θ_hm pairwise-EMD distance engine.

Times the ``vectorized`` / ``pruned`` engines of
:func:`repro.stats.emd.pairwise_emd` over synthetic host populations at
several scales, verifies both reproduce a per-pair
:func:`~repro.stats.emd.emd_1d` oracle matrix (computed untimed), and
writes the measurements to ``BENCH_hm.json`` at the repo root so
successive PRs accumulate a perf trajectory.

All headline timings run with the observability layer *disabled* (its
production default).  Each scale additionally records an
``observability`` breakdown from one instrumented vectorized run —
kernel block count, total/mean per-block time, and the wall-clock cost
of having telemetry enabled — and a separate smoke test bounds the
disabled-mode overhead of the instrumented kernel.

Run directly (full sweep)::

    PYTHONPATH=src python benchmarks/test_perf_hm.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_hm.py -q

A second sweep benchmarks the *clustering-level* pruned engine
(``cluster_hosts(backend="pruned")`` vs the exact ``vectorized`` matrix
path) on modal timer populations — the certified-decomposition shape —
at 5k-host scale, asserting full suspect-set equivalence at every
measured size and recording certification stats (groups, pruned-pair
fraction, rounds) under the report's ``pruned_clustering`` key.

Environment knobs:

* ``REPRO_BENCH_HM_HOSTS`` — comma-separated host counts
  (default ``50,200,500,1000``); CI smoke runs set a small value.
* ``REPRO_BENCH_HM_PRUNED_HOSTS`` — host counts for the pruned
  clustering sweep (default ``1000,2000,5000``).
* ``REPRO_BENCH_HM_OUT`` — output path (default ``<repo>/BENCH_hm.json``).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from history import append_history

from repro import obs
from repro.detection.humanmachine import cluster_hosts
from repro.stats.emd import emd_1d, pairwise_emd
from repro.stats.emdindex import pruned_partition
from repro.stats.histogram import Histogram, build_histogram

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HOST_COUNTS = (50, 200, 500, 1000)
DEFAULT_PRUNED_HOST_COUNTS = (1000, 2000, 5000)

#: Equivalence tolerance between backends — the engines integrate the
#: same merged CDF, so only summation-order float dust may differ.
ATOL = 1e-12


def synthesize_histograms(n_hosts: int, seed: int = 7) -> List[Histogram]:
    """A θ_hm-shaped host population: timer bots plus lognormal humans.

    Sample counts vary per host (as reservoir fill levels do), so the
    signatures have unequal bin counts — the ragged case the dense
    padding must handle.
    """
    rng = np.random.default_rng(seed)
    hists = []
    for i in range(n_hosts):
        n_samples = int(rng.integers(60, 1500))
        if i % 4 == 0:  # machine-periodic: tight spread around a timer
            period = float(rng.uniform(0.5, 3.0))
            samples = rng.normal(period, 0.02, n_samples)
        else:  # human-driven: heavy-tailed interstitials (log10 space)
            samples = np.log10(
                np.clip(rng.lognormal(np.log(20), 1.5, n_samples), 1e-3, None)
            )
        hists.append(build_histogram(samples))
    return hists


def modal_histograms(
    n_hosts: int, n_modes: int = 4, seed: int = 7
) -> List[Histogram]:
    """Hosts drawn from ``n_modes`` tight, well-separated timer families.

    The population shape the pruning engine is built for: bots of one
    botnet share binary timers, so inter-family EMD dwarfs intra-family
    spread and the group decomposition certifies from lower bounds.
    """
    rng = np.random.default_rng(seed)
    hists = []
    for k in range(n_hosts):
        samples = rng.normal(1.5 * (k % n_modes), 0.02, 150)
        hists.append(build_histogram(samples.tolist()))
    return hists


def _merge_report(out_path: Path, report: dict, section_keys) -> None:
    """Write ``report`` to ``out_path``, preserving other sweeps' keys.

    The matrix sweep owns ``results``; the clustering sweep owns
    ``pruned_clustering``.  Each run refreshes its own section plus the
    shared header without clobbering the other's measurements.
    """
    merged = {}
    if out_path.exists():
        try:
            merged = json.loads(out_path.read_text())
        except (OSError, ValueError):
            merged = {}
    for key, value in report.items():
        if key in section_keys or key not in merged:
            merged[key] = value
    merged["generated_at"] = report["generated_at"]
    out_path.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out_path}")


def _oracle_matrix(histograms: Sequence[Histogram]) -> np.ndarray:
    """The reference matrix: one per-pair :func:`emd_1d` call each."""
    n = len(histograms)
    matrix = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = emd_1d(histograms[i], histograms[j])
    return matrix


def _time_backend(
    histograms: Sequence[Histogram], backend: str, repeats: int
) -> Dict[str, object]:
    best = float("inf")
    matrix = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        matrix = pairwise_emd(histograms, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return {"seconds": best, "matrix": matrix}


def _observed_breakdown(
    histograms: Sequence[Histogram], disabled_seconds: float
) -> Dict[str, object]:
    """One vectorized run with repro.obs enabled: per-stage telemetry.

    Returns the kernel's block count, total/mean per-block time, pair
    count, and the enabled-mode wall time relative to the disabled-mode
    measurement — the direct cost of the telemetry itself.  The
    registry is reset so the numbers describe exactly this run.
    """
    obs.get_registry().reset()
    obs.enable()
    try:
        t0 = time.perf_counter()
        pairwise_emd(histograms, backend="vectorized")
        enabled_seconds = time.perf_counter() - t0
    finally:
        obs.disable()
    summary = obs.summary()
    blocks = summary["repro_emd_blocks_total"].get("", 0.0)
    block_hist = summary["repro_emd_block_seconds"].get(
        "", {"count": 0, "sum": 0.0}
    )
    pairs = summary["repro_emd_pairs_total"].get("backend=vectorized", 0.0)
    obs.get_registry().reset()
    return {
        "kernel_blocks": int(blocks),
        "block_seconds_total": block_hist["sum"],
        "block_seconds_mean": (
            block_hist["sum"] / block_hist["count"] if block_hist["count"] else 0.0
        ),
        "pairs_recorded": int(pairs),
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_vs_disabled": (
            enabled_seconds / disabled_seconds if disabled_seconds else 0.0
        ),
    }


def run_benchmark(
    host_counts: Sequence[int],
    out_path: Path,
    repeats: int = 3,
) -> dict:
    """Time every backend at every scale and write the JSON report."""
    report = {
        "benchmark": "theta_hm pairwise EMD distance engine",
        "generated_by": "benchmarks/test_perf_hm.py",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "atol": ATOL,
        "results": [],
    }
    for n_hosts in host_counts:
        hists = synthesize_histograms(n_hosts)
        max_bins = max(len(h.centers) for h in hists)
        reference = _oracle_matrix(hists)
        vec = _time_backend(hists, "vectorized", repeats=repeats)
        pruned = _time_backend(hists, "pruned", repeats=repeats)
        entry = {
            "n_hosts": n_hosts,
            "n_pairs": n_hosts * (n_hosts - 1) // 2,
            "max_bins": max_bins,
            "backends": {},
        }
        for name, run in (("vectorized", vec), ("pruned", pruned)):
            diff = float(np.abs(run["matrix"] - reference).max())
            if diff > ATOL:
                raise AssertionError(
                    f"{name} backend diverges from per-pair emd_1d at "
                    f"{n_hosts} hosts: max|diff|={diff:g}"
                )
            entry["backends"][name] = {
                "seconds": run["seconds"],
                "max_abs_diff_vs_emd_1d": diff,
            }
        # Per-stage kernel telemetry (repro.obs): block counts, kernel
        # time, and what turning instrumentation on costs at this scale.
        entry["observability"] = _observed_breakdown(hists, vec["seconds"])
        report["results"].append(entry)
        o = entry["observability"]
        print(
            f"n_hosts={n_hosts:5d}  vectorized={vec['seconds']:8.3f}s  "
            f"pruned={pruned['seconds']:8.3f}s  "
            f"[{o['kernel_blocks']} blocks, obs-on "
            f"{o['enabled_overhead_vs_disabled']:.2f}x]"
        )
    _merge_report(out_path, report, section_keys={"results"})
    append_history(
        "hm_distance",
        {
            f"{backend}_seconds@n{entry['n_hosts']}": timing["seconds"]
            for entry in report["results"]
            for backend, timing in entry["backends"].items()
        },
    )
    return report


def _time_clustering(
    histograms: Dict[str, Histogram], backend: str, repeats: int
):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = cluster_hosts(histograms, 70.0, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_pruned_benchmark(
    host_counts: Sequence[int],
    out_path: Path,
    repeats: int = 2,
) -> dict:
    """Clustering-level sweep: pruned engine vs the exact vectorized path.

    Every scale asserts full equivalence — identical clusters, kept
    set, τ_hm and diameters (to ``ATOL``) — so the recorded speedups
    are speedups *at the same answer*.
    """
    report = {
        "benchmark": "theta_hm pairwise EMD distance engine",
        "generated_by": "benchmarks/test_perf_hm.py",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "atol": ATOL,
        "pruned_clustering": [],
    }
    for n_hosts in host_counts:
        hists = modal_histograms(n_hosts)
        histograms = {f"h{i:06d}": h for i, h in enumerate(hists)}
        pruned_s, pruned = _time_clustering(histograms, "pruned", repeats)
        exact_s, exact = _time_clustering(histograms, "vectorized", 1)
        if pruned.clusters != exact.clusters or pruned.kept != exact.kept:
            raise AssertionError(
                f"pruned clustering diverges from vectorized at {n_hosts} hosts"
            )
        diff = float(
            np.abs(np.asarray(pruned.diameters) - np.asarray(exact.diameters)).max()
        )
        if diff > ATOL or abs(pruned.threshold - exact.threshold) > ATOL:
            raise AssertionError(
                f"pruned diameters/threshold diverge at {n_hosts} hosts: "
                f"max|diff|={diff:g}"
            )
        _members, _diams, prune_report = pruned_partition(hists, 0.05)
        entry = {
            "n_hosts": n_hosts,
            "n_pairs": n_hosts * (n_hosts - 1) // 2,
            "pruned_seconds": pruned_s,
            "vectorized_seconds": exact_s,
            "speedup_vs_vectorized": exact_s / pruned_s,
            "max_abs_diameter_diff": diff,
            "certified": prune_report.certified,
            "fallback_reason": prune_report.fallback_reason,
            "groups": prune_report.groups,
            "rounds": prune_report.rounds,
            "prune_fraction": prune_report.prune_fraction,
        }
        report["pruned_clustering"].append(entry)
        print(
            f"n_hosts={n_hosts:5d}  pruned={pruned_s:8.3f}s  "
            f"vectorized={exact_s:8.3f}s "
            f"({entry['speedup_vs_vectorized']:6.1f}x)  "
            f"certified={prune_report.certified} "
            f"prune_frac={prune_report.prune_fraction:.3f} "
            f"rounds={prune_report.rounds}"
        )
    _merge_report(out_path, report, section_keys={"pruned_clustering"})
    append_history(
        "hm_pruned_clustering",
        {
            f"pruned_seconds@n{entry['n_hosts']}": entry["pruned_seconds"]
            for entry in report["pruned_clustering"]
        },
    )
    return report


def _configured_host_counts() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_HM_HOSTS")
    if not raw:
        return list(DEFAULT_HOST_COUNTS)
    return [int(part) for part in raw.split(",") if part.strip()]


def _configured_pruned_host_counts() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_HM_PRUNED_HOSTS")
    if not raw:
        return list(DEFAULT_PRUNED_HOST_COUNTS)
    return [int(part) for part in raw.split(",") if part.strip()]


def _configured_out_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_HM_OUT", REPO_ROOT / "BENCH_hm.json"))


def test_obs_disabled_overhead_smoke():
    """Instrumented hot loops must cost ~nothing while obs is disabled.

    The kernel's only disabled-mode residue is one boolean check per
    cache-sized block, so two interleaved best-of-N disabled runs must
    agree to measurement noise (±5%, with a small absolute floor for
    very fast machines), and an enabled run — which pays two
    ``perf_counter`` calls plus two locked metric updates per block —
    is bounded loosely to catch accidentally-heavy telemetry.
    """
    hists = synthesize_histograms(300)
    pairwise_emd(hists, backend="vectorized")  # warm caches and numpy

    def timed() -> float:
        t0 = time.perf_counter()
        pairwise_emd(hists, backend="vectorized")
        return time.perf_counter() - t0

    def best_of(n: int) -> float:
        return min(timed() for _ in range(n))

    # One timing of each side per round, so a burst of load from a
    # neighbouring process lands on both sides rather than on one.
    a = b = float("inf")
    for _ in range(7):
        a = min(a, timed())
        b = min(b, timed())
    tolerance = max(0.05 * max(a, b), 1e-3)
    assert abs(a - b) <= tolerance, (
        f"disabled-mode timing unstable: {a:.6f}s vs {b:.6f}s"
    )

    obs.get_registry().reset()
    obs.enable()
    try:
        enabled = best_of(5)
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert enabled <= max(a, b) * 1.5 + 2e-3, (
        f"enabled-mode overhead too high: {enabled:.6f}s vs {max(a, b):.6f}s"
    )


def test_perf_hm_distance_engine():
    """Benchmark entry point under pytest.

    Backend equivalence is asserted inside :func:`run_benchmark`; the
    speedups themselves are recorded, not asserted, so a loaded CI
    machine cannot flake the suite.
    """
    report = run_benchmark(_configured_host_counts(), _configured_out_path())
    assert report["results"], "benchmark produced no measurements"


def test_perf_hm_pruned_clustering():
    """Clustering-level pruned sweep under pytest.

    Equivalence at every scale is asserted inside
    :func:`run_pruned_benchmark`; speedups are recorded, not asserted.
    """
    report = run_pruned_benchmark(
        _configured_pruned_host_counts(), _configured_out_path()
    )
    assert report["pruned_clustering"], "benchmark produced no measurements"


if __name__ == "__main__":
    run_benchmark(_configured_host_counts(), _configured_out_path())
    run_pruned_benchmark(
        _configured_pruned_host_counts(), _configured_out_path()
    )
