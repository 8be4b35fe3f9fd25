"""Regenerate ``pruning_corpus.json`` — adversarial θ_hm populations.

Each population is engineered to sit within float dust of one of the
decision boundaries the pruned EMD engine must never flip:

* ``cut_tie``     — the k'-th and (k'+1)-th heaviest within-group links
                    differ by 2^-40 (≈9.1e-13).  The full run breaks
                    this tie by global merge index; the pruned engine
                    must detect the tie and take the exact path.
* ``cut_clear``   — the same family structure with a wide boundary gap;
                    the pruned engine must certify and cut identically.
* ``tau_dust``    — two cluster diameters straddle τ_hm's keep
                    tolerance (τ + 1e-9) by 2^-48 below and 2^-28
                    above; keep/drop must match the exact vectorized
                    engine on both sides.

Every host is a point-mass histogram at a dyadic-rational position, so
EMD values, UPGMA merge weights and diameters are *bit-exact* in IEEE
double arithmetic — the boundaries land exactly where they are placed.
The script verifies every expectation against both backends before
writing, so a committed corpus is a checked corpus.

Run from the repo root::

    PYTHONPATH=src python tests/stats/data/make_pruning_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.detection.humanmachine import cluster_hosts
from repro.stats.emdindex import pruned_partition
from repro.stats.histogram import Histogram

OUT = Path(__file__).with_name("pruning_corpus.json")

#: Families sit this far apart — vastly above any intra-family scale,
#: so the lower-bound scan separates them in one round.  Small enough
#: (2^13) that sub-nanosecond diameter dust stays representable when
#: added to a family's base position (ulp at the largest base is
#: ~1.5e-11, well inside the 1e-9 windows engineered below).
BASE_GAP = float(2**13)

CUT_FRACTION = 0.05
PERCENTILE = 70.0


def point_mass(position: float) -> dict:
    return {"centers": [position], "weights": [1.0]}


def family(base: float, diameter: float, n_low: int, n_high: int) -> list:
    """A timer family: two clone subclusters ``diameter`` apart.

    The high position is the *float-rounded* ``base + diameter``; the
    realized diameter (what both EMD engines will compute, exactly, via
    Sterbenz subtraction) is :func:`realized` of the same inputs.
    """
    return [point_mass(base)] * n_low + [point_mass(base + diameter)] * n_high


def realized(base: float, diameter: float) -> float:
    """The exact cluster diameter the float positions actually encode."""
    return (base + diameter) - base


def to_histograms(hosts: list) -> list:
    return [
        Histogram(
            centers=tuple(h["centers"]),
            weights=tuple(h["weights"]),
            bin_width=1.0,
        )
        for h in hosts
    ]


def build_cut_population(diameters: list) -> list:
    """Four 25-host families (13+12) with the given internal spreads."""
    hosts = []
    for g, d in enumerate(diameters):
        hosts.extend(family(g * BASE_GAP, d, 13, 12))
    return hosts


def build_tau_population() -> tuple:
    """Ten 20-host families (10+10); diameters straddle τ_hm + 1e-9.

    k_cut = ceil(0.05 * 199) = 10 and m = 10 groups, so exactly one
    within link is cut — the heaviest family splits into two
    zero-diameter clusters and the other nine survive intact with
    their engineered diameters.
    """
    # Placeholder diameters; dust values are fixed after measuring τ.
    d_small = [0.25, 0.375, 0.5, 0.625, 0.75, 1.0]
    diameters = [64.0] + d_small + [1.25, 1.5, 2.0]

    def build(ds):
        hosts = []
        for g, d in enumerate(ds):
            hosts.extend(family(g * BASE_GAP, d, 10, 10))
        return hosts

    ref = cluster_hosts(
        as_host_dict(build(diameters)), PERCENTILE, backend="vectorized"
    )
    threshold = ref.threshold
    assert threshold == 1.0, f"expected τ_hm exactly 1.0, got {threshold!r}"
    kept_dust = threshold + 1e-9 - 2**-32
    dropped_dust = threshold + 1e-9 + 2**-32
    # The dust must survive the float rounding of base + diameter at
    # the two families' base positions (7 and 8 gaps out).
    kept_real = realized(7 * BASE_GAP, kept_dust)
    dropped_real = realized(8 * BASE_GAP, dropped_dust)
    assert threshold < kept_real <= threshold + 1e-9 < dropped_real < 2.0, (
        kept_real,
        dropped_real,
    )
    diameters = [64.0] + d_small + [kept_dust, dropped_dust, 2.0]
    # Family 7 carries the kept-side dust diameter, family 8 the
    # dropped-side one (0-indexed; 20 hosts per family).
    kept_family = [f"h{i:04d}" for i in range(7 * 20, 8 * 20)]
    dropped_family = [f"h{i:04d}" for i in range(8 * 20, 9 * 20)]
    return build(diameters), kept_family, dropped_family


def as_host_dict(hosts: list) -> dict:
    hists = to_histograms(hosts)
    return {f"h{i:04d}": h for i, h in enumerate(hists)}


def verify(entry: dict) -> None:
    """Check every pinned expectation before the corpus is written."""
    hosts = entry["hosts"]
    hists = to_histograms(hosts)
    ref = cluster_hosts(as_host_dict(hosts), PERCENTILE, backend="vectorized")
    got = cluster_hosts(as_host_dict(hosts), PERCENTILE, backend="pruned")
    assert got.clusters == ref.clusters, entry["name"]
    assert got.kept == ref.kept, entry["name"]
    assert got.threshold == ref.threshold, entry["name"]
    np.testing.assert_allclose(
        got.diameters, ref.diameters, atol=1e-12, rtol=0.0
    )
    _m, _d, report = pruned_partition(hists, CUT_FRACTION)
    expect = entry["expect"]
    assert report.certified == expect["certified"], (
        entry["name"], report.fallback_reason
    )
    assert report.fallback_reason == expect["fallback_reason"], entry["name"]
    kept_hosts = {h for cluster in ref.kept for h in cluster}
    for name in expect.get("kept_hosts_include", []):
        assert name in kept_hosts, (entry["name"], name)
    for name in expect.get("kept_hosts_exclude", []):
        assert name not in kept_hosts, (entry["name"], name)


def main() -> None:
    populations = []

    # k_cut = ceil(0.05 * 99) = 5, m = 4 families -> 2 within links cut.
    # The 2nd and 3rd heaviest within links differ by 2^-30 (~9.3e-10):
    # a tie at the cut boundary (within the engine's 1e-9-relative
    # margin) that only the global merge order can break.
    tie_gap = realized(BASE_GAP, 8.0) - realized(2 * BASE_GAP, 8.0 - 2**-30)
    assert 0.0 < tie_gap <= 1e-9 * 8.0, tie_gap
    tie = build_cut_population([16.0, 8.0, 8.0 - 2**-30, 4.0])
    populations.append(
        {
            "name": "cut_tie",
            "note": "within-link cut boundary tied to 2^-30; pruned "
            "engine must fall back rather than guess the tie-break",
            "percentile": PERCENTILE,
            "cut_fraction": CUT_FRACTION,
            "expect": {"certified": False, "fallback_reason": "cut-tie"},
            "hosts": tie,
        }
    )

    # Same shape, boundary gap of 4.0: certification and the pooled
    # within-link cut must both go through and match the full run.
    clear = build_cut_population([16.0, 8.0, 2.0, 4.0])
    populations.append(
        {
            "name": "cut_clear",
            "note": "same family structure with a wide cut boundary; "
            "must certify and reproduce the full run's cut",
            "percentile": PERCENTILE,
            "cut_fraction": CUT_FRACTION,
            "expect": {"certified": True, "fallback_reason": ""},
            "hosts": clear,
        }
    )

    tau_hosts, kept_family, dropped_family = build_tau_population()
    populations.append(
        {
            "name": "tau_dust",
            "note": "two cluster diameters straddle tau_hm + 1e-9 by "
            "2^-48 and 2^-28; keep/drop must not flip",
            "percentile": PERCENTILE,
            "cut_fraction": CUT_FRACTION,
            "expect": {
                "certified": True,
                "fallback_reason": "",
                "kept_hosts_include": kept_family,
                "kept_hosts_exclude": dropped_family,
            },
            "hosts": tau_hosts,
        }
    )

    for entry in populations:
        verify(entry)
        print(f"{entry['name']}: verified ({len(entry['hosts'])} hosts)")

    OUT.write_text(json.dumps({"populations": populations}, indent=1))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
