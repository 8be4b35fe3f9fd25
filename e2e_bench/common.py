"""Helpers shared by both workloads: paths, the seeded day, timing.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` there; nothing is installed.  Every file it writes
lands under ``.bench_run/`` in that checkout.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from statistics import median
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: Campus scale every workload synthesises (``CampusConfig.scaled``).
#: 0.15 keeps a run's set-up, timed region and checks inside the
#: benchmark's per-run time budget (see README.md).
DEFAULT_SCALE = 0.15
#: The seed the trace digest in ``digests.json`` was recorded at.
DEFAULT_SEED = 2007
#: Nugache bots per unit of campus scale (82 at paper scale).
NUGACHE_PER_SCALE = 82
#: batch_day and serve_replay read the day's first this-many flows, so
#: every seed hands the timed path the same amount of work.
INPUT_ROWS = 100_000

#: How long one ``host_probe`` call keeps making passes, in seconds.
PROBE_MIN_S = 0.2
#: Seconds one probe pass takes at the reference host speed (the
#: median pass on the 2-vCPU Xeon VM the benchmark was built on).
#: CPU-bound timings are reported scaled to this speed.
PROBE_REF_S = 0.08


def require_program() -> None:
    """Exit non-zero unless the program's sources are in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"e2e_bench: no program sources at {SRC / 'repro'}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass(frozen=True)
class DaySpec:
    """The seeded campus day (day 0, Storm and Nugache overlaid)."""

    seed: int
    scale: float = DEFAULT_SCALE

    def experiment_config(self):
        from repro.experiments.config import ExperimentConfig

        base = ExperimentConfig.paper()
        return replace(
            base,
            campus=replace(base.campus.scaled(self.scale), seed=self.seed),
            seed=self.seed,
            nugache_bots=max(4, round(NUGACHE_PER_SCALE * self.scale)),
        )


def build_day(spec: DaySpec):
    """Synthesise the overlaid day; returns ``(campus, overlaid)``.

    Every call goes through the module attribute so a traced run's
    wrappers (installed on those attributes) see it.
    """
    from repro.datasets import campus as campus_mod
    from repro.datasets import honeynet, overlay
    from repro.netsim.rng import substream

    config = spec.experiment_config()
    window = config.campus.window
    campus = campus_mod.build_campus_day(config.campus, 0)
    storm = honeynet.capture_storm_trace(
        seed=config.seed, n_bots=config.storm_bots, window=window
    )
    nugache = honeynet.capture_nugache_trace(
        seed=config.seed, n_bots=config.nugache_bots, window=window
    )
    overlaid = overlay.overlay_traces(
        campus, [storm, nugache], substream(config.seed, "overlay", 0)
    )
    return campus, overlaid


def synthesize(spec: DaySpec, trace_path: Path):
    """What ``repro-datasets generate`` does for one overlaid day."""
    from repro.flows import argus

    campus, overlaid = build_day(spec)
    argus.write_flows(trace_path, overlaid.store)
    return campus, overlaid


def file_sha256(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def generate_input(spec: DaySpec, out: Path) -> float:
    """Run the set-up child once; return its time up to "ready".

    The child (``gen.py``) writes the trace, the labels and the
    reference verdict digest under ``out``; the time stops when it
    reports the trace and labels written, so the reference computation
    it does afterwards is not counted as set-up.  The child runs on this
    process's CPU between two host probes, and its wall time is returned
    in reference seconds (``reference_seconds``).
    """
    out.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        str(BENCH_DIR / "gen.py"),
        "--seed",
        str(spec.seed),
        "--scale",
        repr(spec.scale),
        "--out",
        str(out),
    ]
    with pinned():
        before = host_probe()
        started = time.perf_counter()
        ready: Optional[float] = None
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=child_env()
        ) as child:
            for line in child.stdout:
                if line.strip() == "ready" and ready is None:
                    ready = time.perf_counter() - started
            code = child.wait()
        if code != 0 or ready is None:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        after = host_probe()
    return reference_seconds(ready, before, after)


def host_probe(cpu: Optional[int] = None, cpu_clock: bool = False) -> float:
    """This CPU's current speed: median seconds of one fixed probe pass.

    The probe (``probe.py``) runs in a child process, so its memory never
    counts in a measured process.  It runs on ``cpu``, or else where this
    process may run: call it while ``pinned`` and it runs on the same CPU
    as the work it calibrates.  ``cpu_clock`` times it by CPU time.
    """
    command = [
        sys.executable,
        str(BENCH_DIR / "probe.py"),
        "--seconds",
        repr(PROBE_MIN_S),
        "--cache",
        str(WORK / "probe.csv"),
    ]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    if cpu_clock:
        command.append("--cpu-clock")
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def reference_seconds(seconds: float, *probes: float) -> float:
    """``seconds`` of CPU-bound work scaled to the reference host speed.

    The host's speed during the work is taken as the geometric mean of
    the probes taken next to it (just before and just after, or during).
    """
    mean = math.exp(sum(math.log(p) for p in probes) / len(probes))
    return seconds * PROBE_REF_S / mean


def _current_cpu() -> int:
    with open("/proc/self/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


@contextmanager
def pinned():
    """Keep this process, and the children it starts, on its current CPU.

    The vCPUs of a small VM drift in speed independently of each other,
    so a probe only calibrates work that runs on the CPU it ran on.
    """
    allowed = os.sched_getaffinity(0)
    cpu = _current_cpu()
    if cpu in allowed:
        os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def read_json(path: Path):
    return json.loads(path.read_text())


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb(pid: int) -> float:
    """Current resident set of ``pid`` in MiB (0 if it has exited)."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used (0 if it has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def jaccard(a, b) -> float:
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


class Outcome:
    """Operations attempted, operations failed, and failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.failures.append(what)
        return ok

    def check(self, problems: Sequence[str]) -> None:
        """Count one correctness check; each problem string fails it."""
        self.op(not problems)
        self.failures.extend(problems)


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    #: end-to-end metric name -> value (untraced units only)
    end_to_end: Dict[str, float]
    #: per-layer metric name -> value (traced runs; missing = layer idle)
    layers: Dict[str, float]
    outcome: Outcome
    #: human-readable lines printed before the JSON result
    report: List[str]


def fresh_dir(path: Path) -> Path:
    """An empty directory at ``path`` (removing what was there)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_repeated(repeats: int, setup: Callable[[int], float]) -> float:
    """Run ``setup(k)`` ``repeats`` times; return the median seconds."""
    return median([setup(k) for k in range(repeats)])


def quality(result, labels: Dict) -> Dict[str, float]:
    """Headline detection quality of one pipeline result (§V-B)."""
    from repro.detection.report import evaluate_pipeline

    plotters = {"storm": set(labels["storm"]), "nugache": set(labels["nugache"])}
    report = evaluate_pipeline(result, plotters, set(labels["trader"]))
    return {
        "storm_tpr": report.tpr("storm"),
        "nugache_tpr": report.tpr("nugache"),
        "fpr": report.false_positive_rate,
        "trader_survival": report.trader_survival,
    }


FUNNEL_CLASSES = ("storm", "nugache", "trader", "other")
FUNNEL_STAGES = ("reduction", "theta_vol", "theta_churn", "theta_hm")


def funnel(result, labels: Dict) -> Dict[str, float]:
    """Survivors per pipeline stage and host class."""
    classes = {name: set(labels[name]) for name in ("storm", "nugache", "trader")}
    known = set().union(*classes.values())
    survivors = {
        "reduction": result.reduced_hosts,
        "theta_vol": result.volume.selected_set,
        "theta_churn": result.churn.selected_set,
        "theta_hm": result.suspects,
    }
    counts = {}
    for stage, hosts in survivors.items():
        hosts = set(hosts)
        for name, members in classes.items():
            counts[f"detection.funnel.{stage}.{name}"] = len(hosts & members)
        counts[f"detection.funnel.{stage}.other"] = len(hosts - known)
    return counts


def timed_units(seconds: float, tracer, unit) -> List[Dict]:
    """Call ``unit(i, traced) -> seconds`` for ``seconds`` of measurement.

    The first unit is a warm-up: it pays lazy imports and grows the heap,
    is left out of the timings, and runs before the measured window
    starts.  In a traced run the units after it alternate
    untraced/traced, so the tracing overhead is the difference of the
    two medians; at least one of each is run.
    """
    units: List[Dict] = []
    started = 0.0
    while (
        len(units) < (3 if tracer is not None else 2)
        or time.perf_counter() - started < seconds
    ):
        i = len(units)
        traced = tracer is not None and i % 2 == 0 and i > 0
        if tracer is not None:
            tracer.enabled = traced
        try:
            elapsed = unit(i, traced)
        finally:
            if tracer is not None:
                tracer.enabled = False
        units.append({"seconds": elapsed, "traced": traced, "timed": i > 0})
        if i == 0:
            started = time.perf_counter()
    return units


def unit_medians(units: List[Dict]):
    """(median untraced seconds, median traced seconds or None, traced count)."""
    plain = [u["seconds"] for u in units if u["timed"] and not u["traced"]]
    traced = [u["seconds"] for u in units if u["timed"] and u["traced"]]
    return median(plain), (median(traced) if traced else None), len(traced)


def unit_line(units: List[Dict]) -> str:
    """The unit times, marked w (warm-up) / t (traced) / u (untraced)."""
    marks = [
        ("w" if not u["timed"] else "t" if u["traced"] else "u") + f"{u['seconds']:.3f}"
        for u in units
    ]
    return "unit seconds: " + " ".join(marks)
