"""Near-threshold regression corpus: pruning must never flip a decision.

``data/pruning_corpus.json`` (regenerated by ``data/make_pruning_corpus
.py``, which verifies every expectation before writing) holds
populations engineered to sit within float dust of the two decision
boundaries downstream of the EMD matrix:

* the top-k link cut of the dendrogram (``cut_tie`` / ``cut_clear``),
* τ_hm's keep tolerance ``diameter <= τ + 1e-9`` (``tau_dust``).

Hosts are point masses at dyadic positions, so distances, merge
weights and diameters are bit-exact — the adversarial gaps (2^-30 at
the cut, ±2^-32 around the τ tolerance) land exactly where placed,
and any divergence between the pruned engine and the per-pair loop
oracle is a real decision flip, not arithmetic noise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.detection.humanmachine import cluster_hosts
from repro.stats.emdindex import pruned_partition
from repro.stats.histogram import Histogram

from .test_emd import loop_cluster_hosts

CORPUS_PATH = Path(__file__).parent / "data" / "pruning_corpus.json"


def load_corpus():
    with CORPUS_PATH.open() as fh:
        return json.load(fh)["populations"]


CORPUS = load_corpus()


def corpus_histograms(entry):
    return [
        Histogram(
            centers=tuple(h["centers"]),
            weights=tuple(h["weights"]),
            bin_width=1.0,
        )
        for h in entry["hosts"]
    ]


def corpus_host_dict(entry):
    hists = corpus_histograms(entry)
    return {f"h{i:04d}": h for i, h in enumerate(hists)}


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
class TestCorpusEquivalence:
    def test_pruned_matches_loop_exactly(self, entry):
        histograms = corpus_host_dict(entry)
        ref = loop_cluster_hosts(histograms, entry["percentile"])
        got = cluster_hosts(histograms, entry["percentile"], backend="pruned")
        assert got.clusters == ref.clusters
        assert got.kept == ref.kept
        # Dyadic corpus: thresholds and diameters must agree to the bit,
        # not merely to tolerance — any drift is a future flip waiting
        # for a closer adversarial gap.
        assert got.threshold == ref.threshold
        assert tuple(got.diameters) == tuple(ref.diameters)

    def test_pinned_pruning_path(self, entry):
        _m, _d, report = pruned_partition(
            corpus_histograms(entry), entry["cut_fraction"]
        )
        assert report.certified == entry["expect"]["certified"]
        assert report.fallback_reason == entry["expect"]["fallback_reason"]

    def test_pinned_keep_drop_decisions(self, entry):
        expect = entry["expect"]
        includes = expect.get("kept_hosts_include", [])
        excludes = expect.get("kept_hosts_exclude", [])
        if not includes and not excludes:
            pytest.skip("no pinned keep/drop expectations for this entry")
        got = cluster_hosts(
            corpus_host_dict(entry), entry["percentile"], backend="pruned"
        )
        kept_hosts = {h for cluster in got.kept for h in cluster}
        for name in includes:
            assert name in kept_hosts
        for name in excludes:
            assert name not in kept_hosts


class TestCorpusShape:
    """Guard the corpus itself: the dust must still be dust."""

    def test_corpus_has_all_boundary_cases(self):
        names = {e["name"] for e in CORPUS}
        assert {"cut_tie", "cut_clear", "tau_dust"} <= names

    def test_cut_tie_gap_is_subnanoscale(self):
        entry = next(e for e in CORPUS if e["name"] == "cut_tie")
        positions = sorted({h["centers"][0] for h in entry["hosts"]})
        # Family diameters = high − low position per family of four.
        diameters = sorted(
            (positions[2 * g + 1] - positions[2 * g] for g in range(4)),
            reverse=True,
        )
        tie_gap = diameters[1] - diameters[2]
        assert 0.0 < tie_gap <= 1e-9 * diameters[1]

    def test_tau_dust_diameters_straddle_the_tolerance(self):
        entry = next(e for e in CORPUS if e["name"] == "tau_dust")
        ref = loop_cluster_hosts(corpus_host_dict(entry), entry["percentile"])
        edge = ref.threshold + 1e-9
        above = [d for d in ref.diameters if ref.threshold < d <= edge]
        below_2 = [d for d in ref.diameters if edge < d < 2.0]
        assert above, "no diameter inside the keep tolerance window"
        assert below_2, "no diameter just beyond the keep tolerance"
        # Both dust diameters sit within 2^-31 of the tolerance edge.
        assert min(abs(d - edge) for d in above + below_2) <= 2**-31

    def test_tau_dust_positions_survive_json_roundtrip(self):
        entry = next(e for e in CORPUS if e["name"] == "tau_dust")
        reencoded = json.loads(json.dumps(entry["hosts"]))
        assert reencoded == entry["hosts"]
        flat = [h["centers"][0] for h in entry["hosts"]]
        np.testing.assert_array_equal(
            np.asarray(flat), np.asarray([h["centers"][0] for h in reencoded])
        )
