#!/usr/bin/env python3
"""Self-test of the cluster benchmark in run.py.

Checks, on small configurations so the whole test takes about a minute:
  * the reference sums heatgen writes (gridapp::heat_reference_sums) are
    bit-equal to an independent same-order re-implementation below;
  * one small run of each workload completes with bit-exact sums;
  * a deliberately wrong reference sum makes the run fail: it counts
    against completed_share and enters run_s and cpu_s at its deadline;
  * a run stopped by the coordinator's --timeout deadline does the same;
  * run_s is the median over the runs that ran side by side plus every
    failed run at its deadline;
  * no child process outlives its run.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
from pathlib import Path

import run as bench

# Small versions of each workload: same shape, a fraction of the work.
SMALL = {
    "heat_ckpt": dict(rows=16, cols=32, steps=60, interval=10),
    "heat_plain": dict(rows=16, cols=32, steps=60),
    "heat_dense": dict(ranks=40, rows=40, cols=8, steps=10),
    # Long enough that the progress poll sees the kill window open.
    "heat_kill": dict(rows=32, cols=256),
}


def reference_sums(ranks: int, rows: int, cols: int, steps: int) -> list[str]:
    """Sequential heat stencil in the generated program's operation order."""
    u = [[100.0 if r in (0, rows - 1) or c in (0, cols - 1) else 0.0
          for c in range(cols)] for r in range(rows)]
    for _ in range(steps):
        v = [row[:] for row in u]
        for r in range(1, rows - 1):
            up, mid, dn, out = u[r - 1], u[r], u[r + 1], v[r]
            for c in range(1, cols - 1):
                out[c] = 0.25 * (up[c] + dn[c] + mid[c - 1] + mid[c + 1])
        u = v
    band = rows // ranks
    sums = []
    for rank in range(ranks):
        total = 0.0
        for r in range(rank * band, (rank + 1) * band):
            for c in range(cols):
                total = total + u[r][c]
        sums.append(total.hex())
    return sums


def live_children() -> list[int]:
    me = str(os.getpid())
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:  # fields: state, ppid, ...
            kids.append(int(stat.parent.name))
    return kids


class Checker:
    def __init__(self):
        self.failures = 0

    def expect(self, cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        self.failures += not cond


def main() -> int:
    tools = bench.build()
    work = bench.ROOT / ".bench_run" / "selftest"
    check = Checker()
    rng = random.Random(1)

    for name, small in SMALL.items():
        wl = dataclasses.replace(bench.WORKLOADS[name], **small)
        inputs = bench.generate(tools, wl, work)
        if wl.ranks * wl.rows * wl.cols * wl.steps <= 1e7:
            check.expect(inputs.reference == reference_sums(
                wl.ranks, wl.rows, wl.cols, wl.steps),
                f"{name}: heatgen reference equals the independent one")
        r = bench.one_run(tools, wl, inputs, work, rng)
        print(bench.run_record(1, wl, 1, r))
        check.expect(r.ok and not r.wrong_sum, f"{name}: small run completes bit-exact")
        if wl.kill:
            check.expect(r.kill.seen is not None
                         and min(r.kill.seen.values()) >= r.kill.k,
                         f"{name}: kill fired once every rank reached seq {r.kill.k}")
        check.expect(not live_children(), f"{name}: no child outlives the run")

    wl = dataclasses.replace(bench.WORKLOADS["heat_ckpt"], **SMALL["heat_ckpt"],
                             deadline_s=10.0)
    inputs = bench.generate(tools, wl, work)
    bad = list(inputs.reference)
    bad[1] = math.nextafter(float.fromhex(bad[1]), math.inf).hex()
    r = bench.one_run(tools, wl, dataclasses.replace(inputs, reference=bad), work, rng)
    e2e = bench.end_to_end([r])
    check.expect(not r.ok and r.wrong_sum, "one-ulp-wrong reference: run failed, sum wrong")
    check.expect(e2e["completed_share"] == 0.0, "one-ulp-wrong reference: completed_share 0")
    check.expect(e2e["run_s"] == wl.deadline_s and e2e["cpu_s"] == wl.deadline_s,
                 "one-ulp-wrong reference: run_s and cpu_s entered at the deadline")

    wl = dataclasses.replace(bench.WORKLOADS["heat_ckpt"], deadline_s=0.5)
    inputs = bench.generate(tools, wl, work)
    r = bench.one_run(tools, wl, inputs, work, rng)
    e2e = bench.end_to_end([r])
    print(bench.run_record(1, wl, 1, r))
    check.expect(not r.ok and not r.wrong_sum, f"deadline 0.5 s: run failed ({r.why})")
    check.expect(e2e["completed_share"] == 0.0, "deadline: completed_share 0")
    check.expect(e2e["run_s"] >= wl.deadline_s and e2e["cpu_s"] >= wl.deadline_s,
                 "deadline: run_s and cpu_s entered at the deadline or above")
    check.expect(not live_children(), "deadline: no child outlives the run")

    def fake(run_s: float, cpu_s: float, ok: bool = True) -> bench.Run:
        return dataclasses.replace(r, ok=ok, why="" if ok else "hung",
                                   wrong_sum=False, run_s=run_s, cpu_s=cpu_s)
    side, slow, hung = fake(1.0, 1.9), fake(2.0, 1.9), fake(r.deadline_s, 0.1, False)
    check.expect(bench.end_to_end([side, side, slow, slow, slow])["run_s"] == 1.0,
                 "run_s: median over the runs that ran side by side")
    check.expect(bench.end_to_end([side, slow, hung, hung])["run_s"] == r.deadline_s,
                 "run_s: failed runs enter at the deadline")
    check.expect(bench.end_to_end([slow, slow, hung])["run_s"] == 2.0,
                 "run_s: all runs when none ran side by side")

    print(f"selftest: {check.failures} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
