"""Set-up child: synthesise the seeded day and write it to disk.

Usage::

    python3 e2e_bench/gen.py --seed 7 --scale 0.15 --out DIR

Writes ``DIR/trace.csv`` (the Argus CSV the timed runs read: the day's
first ``INPUT_ROWS`` flows in trace order) and
``DIR/labels.json`` (ground truth from the generator's objects: the
overlay's plotter sets and ``identify_traders`` on the campus store),
prints ``ready``, then writes ``DIR/reference.json`` — the suspect
digest of ``find_plotters`` over the generator's in-memory store, which
the batch_day check compares the CSV path against.  Runs in its own
process so the parent's memory high-water mark never includes the
generator.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import INPUT_ROWS, DaySpec, build_day, require_program  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    require_program()

    from repro.datasets.groundtruth import identify_traders
    from repro.detection.pipeline import find_plotters
    from repro.flows.argus import write_flows
    from repro.flows.store import FlowStore
    from repro.obs.ledger import suspects_checksum

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    campus, overlaid = build_day(DaySpec(args.seed, args.scale))
    flows = list(overlaid.store)[:INPUT_ROWS]
    write_flows(out / "trace.csv", flows)
    traders = identify_traders(campus.store, campus.all_hosts)
    labels = {
        "storm": sorted(overlaid.plotters_of("storm")),
        "nugache": sorted(overlaid.plotters_of("nugache")),
        "trader": sorted(traders),
        "rows": len(flows),
    }
    (out / "labels.json").write_text(json.dumps(labels, sort_keys=True))
    print("ready", flush=True)

    result = find_plotters(FlowStore(flows))
    reference = {"suspects_sha256": suspects_checksum(result.suspects)}
    (out / "reference.json").write_text(json.dumps(reference, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
