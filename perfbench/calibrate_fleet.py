#!/usr/bin/env python3
"""Rebuild perfbench/fleet_pool.json, the fleet workload's program pool.

Times one fleet op (generate, compile, analyse, replay, check) for
``PER_SLOT`` consecutive generator seeds on each of the twelve
preset/processor slots, in ``PASSES`` fresh processes (a program's second op
in one process reuses its compiled kernels) with the programs in a new order
each time, and keeps each program's fastest time, so that a slow spell of a
shared host does not misplace it.  Programs that fail the oracle are left
out.  Each slot keeps the ``BAND`` programs whose cost is closest to the
slot's median, so that every round of one program per slot does about the
same work.  Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/calibrate_fleet.py
"""

from __future__ import annotations

import multiprocessing
import os
import random
import statistics
import sys
import time
from typing import Dict, Tuple

import workloads

FIRST_SEED = 1000
PER_SLOT = 150
PASSES = 3
BAND = 40


def one_pass(number: int) -> Dict[Tuple[str, int], float]:
    """Seconds of one fleet op per ``(slot, seed)``; ``inf`` when it fails."""
    fleet = workloads.Fleet(0, workloads.HERE)
    fleet.warm_up(fleet.warm_up_items())
    programs = [
        (FIRST_SEED + index, *fleet.slots[index % len(fleet.slots)])
        for index in range(PER_SLOT * len(fleet.slots))
    ]
    random.Random(number).shuffle(programs)
    seconds = {}
    for seed, preset, processor in programs:
        started = time.perf_counter()
        result = fleet.execute((seed, preset, processor))
        elapsed = time.perf_counter() - started
        seconds[(f"{preset.name}/{processor}", seed)] = elapsed if result.ok else float("inf")
    print(f"pass {number + 1} of {PASSES} done", file=sys.stderr)
    return seconds


def main() -> int:
    # One fresh process per pass, one after the other.
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        passes = pool.map(one_pass, range(PASSES), chunksize=1)
    fastest = {key: min(timed[key] for timed in passes) for key in passes[0]}
    costs: Dict[str, list] = {}
    for (slot, seed), seconds in sorted(fastest.items()):
        if seconds == float("inf"):
            print(f"seed {seed} ({slot}) fails the oracle; left out", file=sys.stderr)
        else:
            costs.setdefault(slot, []).append((seconds, seed))
    lines = []
    for slot, entries in costs.items():
        median = statistics.median(seconds for seconds, _ in entries)
        band = sorted(entries, key=lambda entry: abs(entry[0] - median))[:BAND]
        lines.append(f'  "{slot}": [{", ".join(str(seed) for _, seed in sorted(band))}]')
        spread = [seconds / median for seconds, _ in band]
        print(f"{slot}: median {1e3 * median:.1f} ms, band {min(spread):.2f}-{max(spread):.2f}x",
              file=sys.stderr)
    path = os.path.join(workloads.HERE, "fleet_pool.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
