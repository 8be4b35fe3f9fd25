"""Host-speed probe: time a fixed, program-independent pass of work.

Usage::

    python3 e2e_bench/probe.py --seconds 0.2 [--cpu N] [--cpu-clock] [--cache FILE]

Prints the median seconds of one pass over at least ``--seconds``.  A
pass parses 20,000 fixed Argus-like CSV rows with the standard library's
``csv`` module and groups them by source: the same kind of work as the
program's parse path, but none of the program's code, so a change to the
program never changes the probe.  On a small shared VM a vCPU's speed
drifts by tens of percent over minutes; timing this probe next to the
program's work measures that drift (see ``common.reference_seconds``).
``--cpu`` runs the probe on that CPU.  ``--cpu-clock`` times passes by
this process's CPU time instead of wall time, so a probe that shares the
CPU with busy processes still measures only the CPU's speed.  ``--cache``
keeps the generated rows in a file between probes.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

ROWS = 20_000


def probe_lines() -> List[str]:
    """The probe's input: fixed Argus-like CSV rows, the same on every call."""
    rng = random.Random(0)
    lines = []
    for i in range(ROWS):
        start = i * 0.37 + rng.random()
        lines.append(
            f"{start!r},{start + rng.random() * 30!r},"
            f"{rng.choice(('tcp', 'udp'))},10.1.{i % 7}.{rng.randrange(250)},"
            f"{rng.randrange(1024, 65535)},{rng.randrange(1, 224)}.{rng.randrange(256)}."
            f"{rng.randrange(256)}.{rng.randrange(256)},{rng.randrange(65535)},"
            f"{rng.randrange(40)},{rng.randrange(40)},{rng.randrange(9000)},"
            f"{rng.randrange(90000)},est,{rng.getrandbits(256):064x}\n"
        )
    return lines


def _cached_lines(cache) -> List[str]:
    if cache is None:
        return probe_lines()
    path = Path(cache)
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(path.name + f".{os.getpid()}")
        partial.write_text("".join(probe_lines()))
        os.replace(partial, path)
    with open(path) as handle:
        return handle.readlines()


def probe_pass(lines: List[str], clock=time.perf_counter) -> float:
    started = clock()
    by_src: Dict[str, List[tuple]] = {}
    for row in csv.reader(lines):
        by_src.setdefault(row[3], []).append(tuple(row))
    return clock() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--cpu-clock", action="store_true")
    parser.add_argument("--cache")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    clock = time.process_time if args.cpu_clock else time.perf_counter
    lines = _cached_lines(args.cache)
    passes: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 3 or time.perf_counter() < deadline:
        passes.append(probe_pass(lines, clock))
    print(f"{median(passes)!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
