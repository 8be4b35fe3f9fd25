"""One seeded flows-to-verdicts benchmark, split by layer.

Usage (from the root of a repository checkout)::

    python3 e2e_bench/run.py --workload batch_day --seed 7 --seconds 10 --trace 0

Workloads: ``batch_day`` (trace file → recorded verdict) and
``serve_replay`` (open-loop live ingest → window verdicts → drain).  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` wraps the
program's layer functions with benchmark-owned spans, prints the
per-layer self-time table as Markdown and reports the per-layer
metrics.  Every run checks its outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SCALE,
    DEFAULT_SEED,
    WORK,
    fresh_dir,
    require_program,
)

WORKLOADS = ("batch_day", "serve_replay")


def _workload_module(name: str):
    if name == "batch_day":
        import batch_day as module
    else:
        import serve_replay as module
    return module


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` spawned.

    The serve workers and the extraction pool start it implicitly; the
    benchmark waits for every process it started before it exits.
    """
    import gc
    from multiprocessing import resource_tracker

    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="campus scale of the synthesised day (tests use a tiny one)",
    )
    args = parser.parse_args(argv)
    require_program()

    from metrics import END_TO_END, GENERATOR_PREFIXES, PER_LAYER, per_layer_values
    from tracer import Tracer, install_layers, self_time_table

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}")
        install_layers(tracer)
    base = fresh_dir(WORK / f"{args.workload}-{args.seed}")
    try:
        result = _workload_module(args.workload).run(
            args.seed, args.seconds, tracer, args.scale, base
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(base, ignore_errors=True)
        _stop_resource_tracker()

    for line in result.report:
        print(line)
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    print("| metric | value | unit |\n|---|---:|---|")
    for name, value in list(result.end_to_end.items()) + sorted(result.layers.items()):
        print(f"| {name} | {value:.6g} | {units.get(name, '')} |")

    if tracer is None:
        metrics = {
            name: {"value": result.end_to_end[name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    else:
        values = per_layer_values(tracer, result.layers)
        totals = tracer.layer_totals()
        generator = {k: v for k, v in totals.items() if k.startswith(GENERATOR_PREFIXES)}
        path = {k: v for k, v in totals.items() if k not in generator}
        units_traced = int(values["bench.units_traced"])
        print()
        print(
            self_time_table(
                path,
                path.get("bench.unit", {}).get("total_s", 0.0),
                f"{args.workload}: layer self times over {units_traced} traced unit(s)",
            )
        )
        if generator:
            print()
            print(
                self_time_table(
                    generator,
                    generator.get("bench.synth", {}).get("total_s", 0.0),
                    "generator: layer self times over one synthesis of the day",
                )
            )
        unit_s = totals.get("bench.unit", {}).get("total_s", 0.0)
        if args.workload == "batch_day":
            traced_s = unit_s / units_traced
            print(
                f"\ntraced unit {traced_s:.4f} s = sum of its layer self times; "
                f"untraced unit {values['bench.run_wall_s']:.4f} s; "
                f"tracing overhead {values['bench.tracing_overhead_s']:.4f} s"
            )
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"\nspans written to {spans_path}")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    for problem in result.outcome.failures:
        print(f"FAILED: {problem}")
    outcome = result.outcome
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
