#!/usr/bin/env python3
"""Cluster benchmark: real multi-process `mojc cluster` heat-stencil runs.

Every run starts two `mojc node` agents and one `mojc cluster --wal-root`
coordinator as child processes on a fresh store and WAL directory, runs a
heat-stencil program generated from a gridapp::HeatConfig, reaps all three
children with wait4, and checks every rank's RANK_SUM bit for bit against
the sequential reference. Runs repeat, one at a time (a closed
loop), until --seconds have passed; the end-to-end metrics are medians
over those runs.
With --trace 1 one extra run follows with --stats=json and --trace-out=
on all three processes and the per-layer metrics are taken from it. See README.md in this directory for the workloads, the
metrics and what each should move.

    python3 perfbench/run.py --workload heat_ckpt --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits nonzero without a result when the program cannot be built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ranks: int
    rows: int
    cols: int
    steps: int
    interval: int  # checkpoint every N steps; 0 = never
    deadline_s: float  # the coordinator's --timeout; a failed run enters here
    kill: bool = False  # SIGKILL one agent once checkpoints reach a seeded k


WORKLOADS = {
    # The paper's Figure 2 program: compute and checkpoints both matter.
    # 200 steps (10 checkpoints) keep a run near one second, so a
    # measurement holds 20-45 runs.
    "heat_ckpt": Workload("heat_ckpt", 4, 64, 256, 200, 20, 20.0),
    # heat_ckpt without checkpoints: checkpoint overhead is heat_ckpt
    # minus heat_plain on otherwise identical inputs.
    "heat_plain": Workload("heat_plain", 4, 64, 256, 200, 0, 20.0),
    # 200 rank fibers per agent loop: frames, coordinator DEP_RECORDs and
    # WAL appends dominate, compute is ~10x smaller than heat_ckpt's.
    # Not in BENCHMARK.json: about one run in 170 hangs (README.md).
    "heat_dense": Workload("heat_dense", 400, 400, 16, 40, 0, 20.0),
    # heat_ckpt's exact inputs plus one agent killed mid-run: restore,
    # unpack/recompile, replay and resurrection. Not in BENCHMARK.json:
    # too unsteady and it hangs (README.md).
    "heat_kill": Workload("heat_kill", 4, 64, 256, 200, 20, 20.0, kill=True),
}

KILL_POLL_S = 0.1
AGENTS = 2
READY_TIMEOUT_S = 20.0
# Beyond the coordinator's own --timeout: how long it may take to print
# and shut down before it and the agents are killed.
HARD_GRACE_S = 15.0
# An agent still alive this long after the coordinator exits is killed.
AGENT_EXIT_S = 10.0
# A run counts as serialized when the cluster kept fewer than this many
# cores busy on average (the two modes seen on heat_ckpt are ~1.0 and ~1.85).
SERIAL_PARALLELISM = 1.4

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "completed_share": "share",
    "agent_rss_mb": "MB",
    "setup_s": "s",
}

RANK_SUM = re.compile(r"^RANK_SUM rank=(\d+) sum=(\S+)$", re.M)
LIST_LINE = re.compile(r"^rank_(\d+): \d+ snapshot\(s\), latest seq (\d+),", re.M)
SENDLOG_LINE = re.compile(r"^rank_\d+_sendlog: \d+ snapshot\(s\), latest seq \d+, (\d+) bytes", re.M)


# ---------------------------------------------------------------- build


@dataclasses.dataclass(frozen=True)
class Tools:
    mojc: Path
    heatgen: Path


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Tools:
    """Configures (once) and builds mojc and heatgen in Release mode."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no program sources at {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4",
                    "--target", "mojc", "heatgen"],
                   stdout=sys.stderr, check=True)
    return Tools(out / "mojave" / "core" / "mojc", out / "heatgen")


@dataclasses.dataclass(frozen=True)
class Inputs:
    program: Path
    reference: list[str]  # float.hex of each rank's reference sum


def generate(tools: Tools, wl: Workload, work: Path) -> Inputs:
    """The MojC program and reference sums for the workload's HeatConfig."""
    work.mkdir(parents=True, exist_ok=True)
    prog, sums = work / f"{wl.name}.mjc", work / f"{wl.name}.sums"
    subprocess.run([str(tools.heatgen), str(wl.ranks), str(wl.rows),
                    str(wl.cols), str(wl.steps), str(wl.interval),
                    str(prog), str(sums)], check=True)
    reference = [float(s).hex() for s in sums.read_text().split()]
    if len(reference) != wl.ranks:
        raise SystemExit(f"heatgen wrote {len(reference)} sums, want {wl.ranks}")
    return Inputs(prog, reference)


# ---------------------------------------------------------------- one run


def host_steal_s() -> float:
    """CPU time the hypervisor took from this host's vCPUs since boot."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Child:
    """One child process, reaped with wait4 so its rusage is exact."""

    def __init__(self, argv, cwd: Path, stdout, stderr):
        self.proc = subprocess.Popen(argv, cwd=cwd, stdout=stdout,
                                     stderr=stderr, stdin=subprocess.DEVNULL)
        self.pidfd = os.pidfd_open(self.proc.pid)
        self.status: int | None = None
        self.rusage = None

    def wait(self, timeout: float | None) -> bool:
        """Reaps the child if it exits within `timeout`; True once reaped."""
        if self.status is None:
            ready, _, _ = select.select([self.pidfd], [], [], timeout)
            if not ready:
                return False
            _, self.status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(self.status)
            os.close(self.pidfd)
        return True

    def kill(self) -> None:
        if self.status is None:
            os.kill(self.proc.pid, signal.SIGKILL)
            self.wait(None)

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


def read_ready(agent: Child, deadline: float) -> int | None:
    """The port from an agent's `DNODE_READY port=N` line, or None."""
    fd, line = agent.proc.stdout.fileno(), b""
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 256)
        if not chunk:
            return None
        line += chunk
    m = re.match(rb"DNODE_READY port=(\d+)", line)
    return int(m.group(1)) if m else None


def store_seqs(tools: Tools, store: Path) -> dict[int, int]:
    """Latest checkpoint sequence per rank, as `mojc ckpt list` reports it."""
    try:
        out = subprocess.run([str(tools.mojc), "ckpt", str(store), "list"],
                             capture_output=True, text=True, timeout=10).stdout
    except subprocess.TimeoutExpired:
        return {}
    return {int(r): int(s) for r, s in LIST_LINE.findall(out)}


@dataclasses.dataclass
class Kill:
    victim: int  # agent index
    k: int  # the sequence every rank had to reach
    seen: dict[int, int] | None = None  # per-rank latest seq at kill time
    at_s: float | None = None  # since coordinator start


@dataclasses.dataclass
class Run:
    ok: bool
    why: str  # "" when ok
    wrong_sum: bool  # a RANK_SUM line disagreed with the reference
    deadline_s: float
    run_s: float  # as measured; see entered_run_s
    cpu_s: float
    setup_s: float
    agent_rss_mb: float
    coord_cpu_s: float
    agent_cpu_s: float
    kill: Kill | None
    recovery_s: float | None  # kill to coordinator exit
    steal_s: float  # host-wide, over the run: tells machine noise apart
    stats: list[dict] | None = None  # traced run: coordinator, agents
    trace_events: int = 0
    resurrections: int = 0

    # A failed run enters the medians at its deadline (or above, if it ran
    # longer), never at the time it happened to take.
    @property
    def entered_run_s(self) -> float:
        return self.run_s if self.ok else max(self.run_s, self.deadline_s)

    @property
    def entered_cpu_s(self) -> float:
        return self.cpu_s if self.ok else max(self.cpu_s, self.deadline_s)

    @property
    def serialized(self) -> bool:
        return self.cpu_s < SERIAL_PARALLELISM * self.run_s


def check_sums(stdout: str, reference: list[str]) -> tuple[str, bool]:
    """('' , False) when every rank's sum is bit-equal to the reference;
    otherwise the reason, and whether any printed sum was wrong."""
    got: dict[int, str] = {}
    for rank, text in RANK_SUM.findall(stdout):
        got[int(rank)] = float(text).hex()
    wrong = [r for r, h in got.items()
             if r >= len(reference) or h != reference[r]]
    if wrong:
        return f"wrong sum on rank {wrong[0]}", True
    missing = [r for r in range(len(reference)) if r not in got]
    if missing:
        return f"{len(missing)} rank sum(s) missing", False
    return "", False


def one_run(tools: Tools, wl: Workload, inputs: Inputs, work: Path,
            rng: random.Random, traced: bool = False) -> Run:
    """One cluster run on fresh directories; every child is reaped."""
    run_dir = work / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    store, wal = run_dir / "store", run_dir / "wal"
    store.mkdir(parents=True)
    wal.mkdir()
    kill = None
    if wl.kill:
        # The victim agent, and the checkpoint sequence k every rank's
        # latest image must reach before it dies: one of the middle fifth
        # of the run's checkpoints.
        n = wl.steps // wl.interval
        kill = Kill(victim=rng.randrange(AGENTS),
                    k=rng.randint(2 * n // 5, 3 * n // 5))

    def telemetry(who: str) -> list[str]:
        if not traced:
            return []
        return ["--stats=json", f"--trace-out={run_dir / (who + '.trace.json')}"]

    children: list[Child] = []
    agents: list[Child] = []
    coord: Child | None = None
    why, wrong = "", False
    setup_s = run_s = recovery_s = None
    try:
        steal0 = host_steal_s()
        t0 = time.monotonic()
        for i in range(AGENTS):
            err = open(run_dir / f"agent{i}.err", "wb")
            agents.append(Child([str(tools.mojc), "node", "--storage",
                                 str(store), "--port", "0",
                                 *telemetry(f"agent{i}")],
                                run_dir, subprocess.PIPE, err))
            err.close()
            children.append(agents[-1])
        ports = [read_ready(a, t0 + READY_TIMEOUT_S) for a in agents]
        setup_s = time.monotonic() - t0
        if None in ports:
            why = "agent not ready"
        else:
            nodes = ",".join(f"127.0.0.1:{p}" for p in ports)
            with open(run_dir / "coord.out", "wb") as out, \
                    open(run_dir / "coord.err", "wb") as err:
                t_start = time.monotonic()
                coord = Child([str(tools.mojc), "cluster", "--nodes", nodes,
                               "--ranks", str(wl.ranks), "--wal-root", str(wal),
                               "--timeout", str(wl.deadline_s),
                               *telemetry("coord"), "run", str(inputs.program)],
                              run_dir, out, err)
            children.append(coord)
            hard = t_start + wl.deadline_s + HARD_GRACE_S
            while not coord.wait(KILL_POLL_S if kill and kill.at_s is None
                                 else max(0.0, hard - time.monotonic())):
                if time.monotonic() >= hard:
                    why = "coordinator did not exit"
                    break
                if kill and kill.at_s is None:
                    seqs = store_seqs(tools, store)
                    if len(seqs) == wl.ranks and min(seqs.values()) >= kill.k:
                        agents[kill.victim].kill()
                        kill.at_s = time.monotonic() - t_start
                        kill.seen = seqs
            run_s = time.monotonic() - t_start
            if kill and kill.at_s is not None:
                recovery_s = run_s - kill.at_s
            if not why:
                rc = coord.proc.returncode
                why, wrong = check_sums((run_dir / "coord.out").read_text(),
                                        inputs.reference)
                if rc != 0:
                    why = f"coordinator exit {rc}" + (f"; {why}" if why else "")
            if kill and kill.at_s is None and not why:
                why = f"checkpoint sequence {kill.k} never reached before exit"
        # Agents leave on the coordinator's SHUTDOWN; give them a moment.
        coord_exited = coord is not None and coord.status is not None
        wait_until = time.monotonic() + (AGENT_EXIT_S if coord_exited else 0)
        for a in agents:
            if not a.wait(max(0.0, wait_until - time.monotonic())):
                a.kill()
                why = why or "agent did not exit"
    finally:
        for c in children:
            c.kill()
            if c.proc.stdout:
                c.proc.stdout.close()

    result = Run(
        ok=not why, why=why, wrong_sum=wrong, deadline_s=wl.deadline_s,
        run_s=run_s or 0.0, cpu_s=sum(c.cpu_s for c in children),
        setup_s=setup_s, agent_rss_mb=max(a.rss_mb for a in agents),
        coord_cpu_s=coord.cpu_s if coord else 0.0,
        agent_cpu_s=sum(a.cpu_s for a in agents),
        kill=kill, recovery_s=recovery_s, steal_s=host_steal_s() - steal0)
    if coord:
        m = re.search(r"cluster: (\d+) resurrection", (run_dir / "coord.err").read_text())
        result.resurrections = int(m.group(1)) if m else 0
    if traced:
        result.stats, result.trace_events = read_telemetry(run_dir)
    return result


def read_telemetry(run_dir: Path) -> tuple[list[dict], int]:
    """--stats=json registry dumps (last JSON line of each stderr) and the
    number of trace events the processes recorded."""
    stats, events = [], 0
    for who in ["coord"] + [f"agent{i}" for i in range(AGENTS)]:
        err = run_dir / f"{who}.err"
        lines = err.read_text(errors="replace").splitlines() if err.exists() else []
        dumps = [ln for ln in lines if ln.startswith("{")]
        stats.append(json.loads(dumps[-1]) if dumps else {})
        trace = run_dir / f"{who}.trace.json"
        if trace.exists():
            doc = json.loads(trace.read_text())
            events += len(doc["traceEvents"] if isinstance(doc, dict) else doc)
    return stats, events


def run_record(i: int, wl: Workload, seed: int, r: Run) -> str:
    rec = {"run": i, "workload": wl.name, "seed": seed, "ok": r.ok,
           "why": r.why, "run_s": r.run_s, "cpu_s": r.cpu_s,
           "entered_run_s": r.entered_run_s, "entered_cpu_s": r.entered_cpu_s,
           "setup_s": r.setup_s, "agent_rss_mb": r.agent_rss_mb,
           "steal_s": r.steal_s,
           "parallelism": r.cpu_s / r.run_s if r.run_s else 0.0}
    if r.kill:
        rec["kill"] = {"victim": r.kill.victim, "k": r.kill.k,
                       "seen_seq": r.kill.seen, "at_s": r.kill.at_s,
                       "recovery_s": r.recovery_s}
    return "RUN " + json.dumps(rec)


# ---------------------------------------------------------------- metrics


def end_to_end(runs: list[Run]) -> dict[str, float]:
    # Whether the two agents run side by side or take turns follows the
    # host's CPU steal, which comes and goes over tens of seconds, so a
    # median over all runs flips between the two modes from one
    # measurement to the next. run_s is the median over the completed
    # runs that ran side by side plus every failed run at its deadline;
    # over all runs if none ran side by side.
    side_by_side = [r for r in runs if r.ok and not r.serialized]
    timed = side_by_side + [r for r in runs if not r.ok] if side_by_side else runs
    return {
        "run_s": statistics.median(r.entered_run_s for r in timed),
        "cpu_s": statistics.median(r.entered_cpu_s for r in runs),
        "completed_share": sum(r.ok for r in runs) / len(runs),
        "agent_rss_mb": statistics.median(r.agent_rss_mb for r in runs),
        "setup_s": statistics.median(r.setup_s for r in runs),
    }


def counter(stats: list[dict], name: str) -> float:
    return sum(s.get("counters", {}).get(name, 0) for s in stats)


def counters_with_prefix(stats: list[dict], prefix: str) -> float:
    return sum(v for s in stats for k, v in s.get("counters", {}).items()
               if k.startswith(prefix))


def hist(stats: list[dict], name: str, field: str) -> float:
    # Only count and sum_us are exact; the percentiles are interpolated.
    return sum(s.get("histograms", {}).get(name, {}).get(field, 0) for s in stats)


def store_figures(tools: Tools, store: Path) -> tuple[float, float]:
    """(latest replay-log bytes summed over ranks, stored chunk bytes)."""
    listing = subprocess.run([str(tools.mojc), "ckpt", str(store), "list"],
                             capture_output=True, text=True, timeout=30).stdout
    stats = subprocess.run([str(tools.mojc), "ckpt", str(store), "stats"],
                           capture_output=True, text=True, timeout=30).stdout
    m = re.search(r"^stored chunk bytes:\s+(\d+)", stats, re.M)
    return (sum(int(b) for b in SENDLOG_LINE.findall(listing)),
            int(m.group(1)) if m else 0)


def frontend_compile_s(tools: Tools, inputs: Inputs, work: Path) -> float:
    """Median wall time of `mojc compile` on the generated source."""
    times = []
    for _ in range(3):
        t0 = time.monotonic()
        subprocess.run([str(tools.mojc), "compile", str(inputs.program),
                        "-o", str(work / "prog.fir")],
                       check=True, capture_output=True)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("vm.instructions", "count"), ("native.compile_s", "s"),
    ("native.compiled_funcs", "count"), ("native.deopts", "count"),
    ("runtime.gc_pause_s", "s"), ("runtime.gc_collections", "count"),
    ("runtime.heap_bytes_allocated", "bytes"),
    ("spec.commits", "count"), ("spec.rollbacks", "count"),
    ("spec.bytes_preserved", "bytes"),
    ("migrate.pack_s", "s"), ("migrate.transfer_s", "s"),
    ("migrate.image_bytes", "bytes"), ("migrate.unpack_s", "s"),
    ("migrate.recompile_s", "s"),
    ("ckpt.puts", "count"), ("ckpt.put_s", "s"),
    ("ckpt.bytes_logical", "bytes"), ("ckpt.bytes_written", "bytes"),
    ("ckpt.sendlog_bytes", "bytes"), ("ckpt.store_bytes", "bytes"),
    ("ckpt.restores", "count"), ("ckpt.restore_s", "s"),
    ("ckpt.restore_failures", "count"),
    ("ctrl.wal_appends", "count"), ("ctrl.wal_fsyncs", "count"),
    ("ctrl.wal_bytes", "bytes"),
    ("dnode.coord_cpu_s", "s"), ("dnode.agent_cpu_s", "s"),
    ("dnode.parallelism", "cores"), ("dnode.serialized_share", "share"),
    ("dnode.run_s_median", "s"), ("host.steal_rate", "share"),
    ("dnode.dep_records", "count"), ("dnode.data_frames", "count"),
    ("dnode.replay_requests", "count"), ("dnode.resurrections", "count"),
    ("dnode.recovery_s", "s"),
    ("sched.slices", "count"), ("sched.blocks", "count"),
    ("sched.deadline_wakes", "count"),
    ("net.frames_out", "count"), ("net.flush_batches", "count"),
    ("net.coalesce_ratio", "frames/batch"), ("net.bytes_out", "bytes"),
    ("frontend.compile_s", "s"),
    ("obs.trace_overhead_cpu_s", "s"), ("obs.trace_events", "count"),
]

# Zero by construction: with no kill nothing needs restoring, replaying
# or resurrecting; with no checkpoint interval the program never calls
# migrate. A nonzero value is flagged: recovery work in a fault-free run
# means a false failure verdict.
RECOVERY_ONLY = {"migrate.unpack_s", "migrate.recompile_s", "ckpt.restores",
                 "ckpt.restore_s", "ckpt.restore_failures",
                 "dnode.replay_requests", "dnode.resurrections",
                 "dnode.recovery_s", "spec.rollbacks"}
CHECKPOINT_ONLY = {"migrate.pack_s", "migrate.transfer_s",
                   "migrate.image_bytes"}


def zero_by_construction(wl: Workload) -> set[str]:
    zero = set() if wl.kill else set(RECOVERY_ONLY)
    if wl.interval == 0:
        zero |= CHECKPOINT_ONLY
    return zero


def per_layer(tools: Tools, wl: Workload, inputs: Inputs, work: Path,
              untraced: list[Run], traced: Run) -> dict[str, float]:
    s = traced.stats or []
    frames = counter(s, "net.coalesce.frames_out")
    batches = counter(s, "net.coalesce.flush_batches")
    sendlog_bytes, store_bytes = store_figures(tools, work / "run" / "store")
    # Benchmark timers over the completed untraced runs; the traced run
    # alone if none completed.
    done = [r for r in untraced if r.ok] or [traced]
    recoveries = [r.recovery_s for r in done if r.recovery_s is not None]
    return {
        "vm.instructions": counter(s, "vm.instructions"),
        "native.compile_s": hist(s, "native.compile_us", "sum_us") / 1e6,
        "native.compiled_funcs": counter(s, "native.compiled_funcs"),
        "native.deopts": counters_with_prefix(s, "native.deopts."),
        "runtime.gc_pause_s": hist(s, "gc.pause_us", "sum_us") / 1e6,
        "runtime.gc_collections": counter(s, "gc.major_collections")
        + counter(s, "gc.minor_collections"),
        "runtime.heap_bytes_allocated": counter(s, "heap.bytes_allocated"),
        "spec.commits": counter(s, "spec.commits"),
        "spec.rollbacks": counter(s, "spec.rollbacks"),
        "spec.bytes_preserved": counter(s, "spec.bytes_preserved"),
        "migrate.pack_s": hist(s, "migrate.pack_us", "sum_us") / 1e6,
        "migrate.transfer_s": hist(s, "migrate.transfer_us", "sum_us") / 1e6,
        "migrate.image_bytes": counter(s, "migrate.image_bytes_packed"),
        "migrate.unpack_s": hist(s, "migrate.unpack_us", "sum_us") / 1e6,
        "migrate.recompile_s": hist(s, "migrate.recompile_us", "sum_us") / 1e6,
        "ckpt.puts": hist(s, "ckpt.put_us", "count"),
        "ckpt.put_s": hist(s, "ckpt.put_us", "sum_us") / 1e6,
        "ckpt.bytes_logical": counter(s, "ckpt.bytes_logical"),
        "ckpt.bytes_written": counter(s, "ckpt.bytes_written"),
        "ckpt.sendlog_bytes": sendlog_bytes,
        "ckpt.store_bytes": store_bytes,
        "ckpt.restores": counter(s, "ckpt.restores"),
        "ckpt.restore_s": hist(s, "ckpt.restore_us", "sum_us") / 1e6,
        "ckpt.restore_failures": counter(s, "ckpt.restore_failures"),
        "ctrl.wal_appends": counter(s, "ctrl.wal.appends"),
        "ctrl.wal_fsyncs": counter(s, "ctrl.wal.fsyncs"),
        "ctrl.wal_bytes": counter(s, "ctrl.wal.bytes"),
        "dnode.coord_cpu_s": traced.coord_cpu_s,
        "dnode.agent_cpu_s": traced.agent_cpu_s,
        "dnode.parallelism": traced.cpu_s / traced.run_s,
        "dnode.serialized_share": sum(r.serialized for r in done) / len(done),
        # The slow mode that run_s leaves out, and the host CPU steal it
        # follows (vCPU-seconds stolen per second of run).
        "dnode.run_s_median": statistics.median(r.entered_run_s
                                                for r in untraced),
        "host.steal_rate": statistics.median(r.steal_s / r.run_s
                                             for r in untraced if r.run_s),
        "dnode.dep_records": counter(s, "dspec.coord_dep_records"),
        "dnode.data_frames": counter(s, "node.data_frames_out"),
        "dnode.replay_requests": counter(s, "dspec.replay_requests"),
        "dnode.resurrections": traced.resurrections,
        "dnode.recovery_s": statistics.median(recoveries) if recoveries else 0.0,
        "sched.slices": counter(s, "sched.slices"),
        "sched.blocks": counter(s, "sched.blocks"),
        "sched.deadline_wakes": counter(s, "sched.deadline_wakes"),
        "net.frames_out": frames,
        "net.flush_batches": batches,
        "net.coalesce_ratio": frames / batches if batches else 0.0,
        "net.bytes_out": counter(s, "net.coalesce.bytes_out"),
        "frontend.compile_s": frontend_compile_s(tools, inputs, work),
        "obs.trace_overhead_cpu_s":
            traced.cpu_s - statistics.median(r.cpu_s for r in done),
        "obs.trace_events": traced.trace_events,
    }


# ---------------------------------------------------------------- main


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            mnt = fields[1]
            if str(path).startswith(mnt.rstrip("/") + "/") and len(mnt) > len(best):
                best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def measure(tools: Tools, wl: Workload, inputs: Inputs, work: Path,
            seed: int, seconds: float) -> list[Run]:
    """Closed loop: one run at a time until `seconds` have passed."""
    rng = random.Random(seed)
    runs: list[Run] = []
    end = time.monotonic() + seconds
    while not runs or time.monotonic() < end:
        runs.append(one_run(tools, wl, inputs, work, rng))
        print(run_record(len(runs), wl, seed, runs[-1]), flush=True)
    return runs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # SIGTERM unwinds like an exception, so one_run still reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    tools = build()
    work = ROOT / ".bench_run" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = generate(tools, wl, work)
    print(f"perfbench: {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; work dir on {fs_type(work)}", file=sys.stderr)

    runs = measure(tools, wl, inputs, work, args.seed, args.seconds)
    if args.trace:
        traced = one_run(tools, wl, inputs, work, random.Random(args.seed),
                         traced=True)
        print(run_record(0, wl, args.seed, traced), flush=True)
        values = per_layer(tools, wl, inputs, work, runs, traced)
        units = dict(PER_LAYER)
        zero = zero_by_construction(wl)
        for name, _ in PER_LAYER:
            mark = ""
            if name in zero:
                mark = "  (zero by construction" + (
                    "; NONZERO)" if values[name] else ")")
            print(f"{name:32s} {values[name]:>16.6g} {units[name]}{mark}")
        all_runs = runs + [traced]
    else:
        values = end_to_end(runs)
        units = END_TO_END_UNITS
        for name, unit in units.items():
            how = " (side-by-side and failed runs)" if name == "run_s" else ""
            print(f"{name:16s} {values[name]:>12.6g} {unit:6s} n={len(runs)}{how}")
        all_runs = runs
    shutil.rmtree(work / "run", ignore_errors=True)

    print(json.dumps({
        "correct": not any(r.wrong_sum for r in all_runs),
        "attempted": len(all_runs),
        "failed": sum(not r.ok for r in all_runs),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
