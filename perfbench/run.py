"""fareysym benchmark: seeded workloads, oracle-checked, one JSON result line.

    python3 perfbench/run.py --workload {build,normalize,query} --seed N \\
        --seconds S --trace {0,1}

The load is one process and a closed loop: the next operation starts only
after the previous one has finished.  With ``--trace 0`` the run measures
``--seconds / round_s`` complete rounds of the workload (at least
``min_rounds``), where ``round_s`` is a round's timed length on a 2-core
x86-64 machine at the seed commit; a fixed number of rounds means a given
seed always measures the same operations, so the latency percentiles of two
versions of the program are the same order statistics.  The last stdout
line carries the end-to-end metrics.  With ``--trace 1`` the first
``min_rounds`` rounds run once untraced and once with the wrappers of
``tracing.py`` installed; the last line carries the per-layer metrics and
the tracing overhead.  Per-op records, a summary and the spans are written
under ``perfbench/out/``.

Times are reported in reference-speed seconds: every timed call is followed
by a fixed calibration kernel, run by ``kernel.py`` in a process of its own
on the same CPU, and the call's wall time is scaled by REF_KERNEL_S over the
median time of the kernel runs around it, raised to KERNEL_ELASTICITY.  On
a shared host the speed of the interpreter drifts by up to 2x over seconds;
the kernel slows down with it, so the scaled times of one workload vary far
less between runs than wall times.  A slowdown that the program causes in
its own process is not divided out, because the kernel does not run there.
Wall times and the kernel's median time are kept in the records and the
summary.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 before printing a result.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

START = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Cold set-ups per untraced run: one in this process, the others each in a
# fresh process; setup_s is their median.
SETUP_REPS = 5
# No new round starts after this many seconds, so a badly regressed
# program still ends well within the benchmark's time limit.
DEADLINE_S = 120
# Address-space cap for this process: a runaway word (a huge power of a
# parabolic generator) raises MemoryError instead of exhausting the host.
MEM_LIMIT = 3 << 30
# Typical time of the kernel on the reference machine; scaled times equal
# wall times whenever the kernel runs this fast.
REF_KERNEL_S = 0.002
KERNEL_WINDOW = 8
# When the host slows down, the workloads slow down somewhat less than the
# kernel: across 30 runs on a 2-core VM, log wall time of a fixed mix of ops
# rose by 0.8 to 0.9 times the log of the kernel time.  Scaling by the 0.9th
# power of the kernel ratio leaves less of the host's drift in the figures.
KERNEL_ELASTICITY = 0.9
# At the commit that added the benchmark, express_word rejects 0 to 2 of the
# about 190 member queries of a query run on normalized symbols (the known
# defect of ROADMAP item 1).  A larger share than this is a regression, and
# the run is not correct.
MAX_DEFECT_SHARE = 0.1


def pin_cpu():
    """Keep this process, and the processes it starts, on one CPU, so that
    the kernel server runs where the program runs and sees its slowdowns."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Clock:
    """Times calls; converts wall times to reference speed afterwards.

    The speed at a call is the median of the KERNEL_WINDOW kernel runs
    around it, half before and half after; a median over several runs
    filters the kernel's own timing noise.
    """

    def __init__(self):
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH / "kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, universal_newlines=True)
        self.samples = []
        self.sample()

    def sample(self):
        """Run the kernel once; returns the index of its time."""
        self.server.stdin.write("\n")
        self.server.stdin.flush()
        self.samples.append(float(self.server.stdout.readline()))
        return len(self.samples) - 1

    def close(self):
        try:
            self.server.stdin.close()
        except OSError:
            pass
        self.server.wait()

    def time(self, fn, *args):
        """(result, exception, wall_s, index of the kernel run after it)."""
        result = exc = None
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as e:
            exc = e
        wall = perf_counter() - t0
        return result, exc, wall, self.sample()

    def ref(self, wall, index):
        """Reference-speed time of a call timed by time()."""
        half = KERNEL_WINDOW // 2
        window = self.samples[max(0, index - half):index + half]
        return wall * (REF_KERNEL_S / statistics.median(window)) ** KERNEL_ELASTICITY


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("build", "normalize", "query"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cold-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import fareysym from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "fareysym" / "__init__.py").is_file():
        raise SystemExit("perfbench: no fareysym sources under %s" % src)
    sys.path.insert(0, str(src))
    import fareysym.cli
    if Path(fareysym.cli.__file__).resolve().parent.parent != src:
        raise SystemExit("perfbench: fareysym was imported from %s, not %s"
                         % (fareysym.cli.__file__, src))


def limit_memory():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = MEM_LIMIT if hard == resource.RLIM_INFINITY else min(MEM_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# workloads.py and tracing.py import fareysym, so they are imported only
# after import_program() has put the checkout's src/ on sys.path.


class Runner:
    """Runs rounds of one workload, checks them, and keeps the records.

    An op counts once in attempted, failed and the defect tally, however
    many passes run it: the traced pass replays untraced ops, and a traced
    op that fails or differs from its untraced run fails that op.
    """

    def __init__(self, wl, workdir, clock):
        self.wl = wl
        self.workdir = workdir
        self.clock = clock
        self.rounds = {}
        self.records = []
        self.attempted = 0
        self.failures = set()  # (round, index) of the stream, or ("probe", index)
        self.defects = 0
        self.member_queries = 0
        self.heights = []
        self.reference = {}   # (round, index) -> sha256 of the untraced pass
        self.out_bytes = 0

    @property
    def failed(self):
        return len(self.failures)

    def ops(self, r):
        if r not in self.rounds:
            self.rounds[r] = self.wl.round(r)
        return self.rounds[r] if r < self.wl.min_rounds else self.rounds.pop(r)

    def _check(self, r, op, timing, passname):
        from workloads import record, verify
        raw, exc, wall, kernel = timing
        outcome = verify(op, raw, exc)
        rec = record(self.wl.name, r, op, wall * 1e3, outcome)
        rec["kernel"] = kernel
        rec["pass"] = passname
        self.records.append(rec)
        return outcome, rec

    def run_round(self, r, tracer=None):
        from workloads import execute, is_member
        ops = self.ops(r)
        for i, op in enumerate(ops):
            if op.argv is not None:
                op.out_path = os.path.join(self.workdir, "op-%d.out" % i)

        def traced(op):
            tracer.active = True
            try:
                return execute(op)
            finally:
                tracer.active = False

        gc.collect()
        timings = [self.clock.time(execute if tracer is None else traced, op)
                   for op in ops]
        for i, (op, timing) in enumerate(zip(ops, timings)):
            if tracer is None:
                outcome, rec = self._check(r, op, timing, "untraced")
                self.reference[r, i] = rec["sha256"]
                self.attempted += 1
                self.defects += outcome.defect
                self.member_queries += op.mat is not None and is_member(op)
                if outcome.height is not None:
                    self.heights.append(outcome.height)
            else:
                outcome, rec = self._check(r, op, timing, "traced")
                if op.argv is not None:
                    self.out_bytes += len(outcome.data)
                if self.reference.get((r, i)) != rec["sha256"]:
                    outcome.ok = rec["ok"] = False
                    rec["error"] = "traced output differs from the untraced one"
            if not outcome.ok:
                self.failures.add((r, i))

    def run_probes(self):
        """Known-defect probes, untraced and outside the latency metrics.
        Returns (probes run, probes that hit a known defect or failed)."""
        from workloads import execute
        probes = self.wl.probes()
        hits = 0
        for i, op in enumerate(probes):
            outcome, _ = self._check(None, op, self.clock.time(execute, op), "probe")
            self.attempted += 1
            if not outcome.ok:
                self.failures.add(("probe", i))
            hits += outcome.defect or not outcome.ok
        return len(probes), hits

    def defect_share(self):
        """Share of the timed member queries that hit a known defect."""
        return self.defects / self.member_queries if self.member_queries else 0.0

    def digest(self):
        """sha256 over the output digests of the first min_rounds rounds."""
        hexes = "".join(rec["sha256"] for rec in self.records
                        if rec["pass"] == "untraced"
                        and rec["round"] < self.wl.min_rounds)
        return hashlib.sha256(hexes.encode()).hexdigest()

    def finish(self):
        """Convert every record's wall time to reference speed."""
        for rec in self.records:
            rec["ms"] = self.clock.ref(rec["wall_ms"], rec.pop("kernel"))

    def latencies_ms(self, passname):
        return [rec["ms"] for rec in self.records if rec["pass"] == passname]

    def pass_ms(self, passname):
        """(reference-speed ms, wall ms) summed over one pass."""
        recs = [rec for rec in self.records if rec["pass"] == passname]
        return sum(rec["ms"] for rec in recs), sum(rec["wall_ms"] for rec in recs)


def tail(latencies):
    """(value, percentile) at the highest percentile with >= 10 ops beyond."""
    lat = sorted(latencies)
    i = max(0, len(lat) - 11)
    return lat[i], 100.0 * (i + 1) / len(lat)


def cold_setup(args):
    """--cold-setup: import the program and set the workload up once, in this
    fresh process; the last stdout line holds the wall seconds of both."""
    limit_memory()
    t0 = perf_counter()
    import_program()
    import_wall = perf_counter() - t0
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        t0 = perf_counter()
        wl.setup()
        setup_wall = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps({"import_s": import_wall, "setup_s": setup_wall}) + "\n")


def cold_setups(args, clock):
    """Reference-speed seconds of SETUP_REPS - 1 cold set-ups, each in a
    fresh process that imports the program and sets the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--cold-setup"]
    times = []
    for _ in range(SETUP_REPS - 1):
        proc = subprocess.run(argv, stdout=subprocess.PIPE, universal_newlines=True,
                              check=True, timeout=60)
        t = json.loads(proc.stdout.splitlines()[-1])
        times.append(clock.ref(t["import_s"] + t["setup_s"], clock.sample()))
    return times


def run(args, workdir, clock, import_timing):
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, workdir)
    gc.collect()
    heights, exc, wall, kernel = clock.time(wl.setup)
    if exc is not None:
        raise exc
    import_s = clock.ref(*import_timing)
    setup_cold = [import_s + clock.ref(wall, kernel)]
    gc.collect()
    gc.freeze()

    runner = Runner(wl, workdir, clock)
    if args.trace == 0:
        setup_cold += cold_setups(args, clock)
        rounds = max(wl.min_rounds, round(args.seconds / wl.round_s))
        r = 0
        while r < rounds and (r < wl.min_rounds or perf_counter() - START < DEADLINE_S):
            runner.run_round(r)
            r += 1
        rounds = r
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer
        rounds = wl.min_rounds
        for r in range(rounds):
            runner.run_round(r)
        tracer = Tracer()
        tracer.install()
        try:
            for r in range(rounds):
                runner.run_round(r, tracer)
        finally:
            tracer.active = False
            tracer.restore()
    stream_defects = runner.defects
    probes, probe_hits = runner.run_probes()
    runner.finish()

    kernel_ms = statistics.median(clock.samples) * 1e3
    summary = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "rounds": rounds,
               "kernel_median_ms": kernel_ms,
               "speed_ratio": REF_KERNEL_S * 1e3 / kernel_ms}
    if args.trace == 0:
        latencies = runner.latencies_ms("untraced")
        tail_ms, tail_pct = tail(latencies)
        timed_ms, wall_ms = runner.pass_ms("untraced")
        metrics = {
            "setup_s": (statistics.median(setup_cold), "s"),
            "ops_per_s": (len(latencies) / (timed_ms / 1e3), "1/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "out_height_bits": (max(heights or runner.heights), "bits"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        summary.update(ops=len(latencies), tail_pct=tail_pct,
                       timed_s=timed_ms / 1e3, timed_wall_s=wall_ms / 1e3,
                       import_s=import_s, setup_cold_s=setup_cold)
    else:
        untraced_ms, _ = runner.pass_ms("untraced")
        traced_ms, traced_wall_ms = runner.pass_ms("traced")
        metrics = tracer.layer_metrics(speed=traced_ms / traced_wall_ms)
        metrics["cli.out_bytes"] = (runner.out_bytes, "bytes")
        metrics["trace.overhead_frac"] = (traced_ms / untraced_ms - 1, "ratio")
        metrics["invariants.known_defect_stream"] = (stream_defects, "count")
        metrics["invariants.known_defect_probe_hits"] = (probe_hits, "count")
        spans_path = OUT / ("%s-seed%d.spans.jsonl.gz" % (wl.name, args.seed))
        tracer.write_spans(spans_path)
        summary.update(untraced_s=untraced_ms / 1e3, traced_s=traced_ms / 1e3,
                       spans=str(spans_path.relative_to(ROOT)))
    defect_share = runner.defect_share()
    summary.update(digest=runner.digest(), attempted=runner.attempted,
                   failed=runner.failed, known_defect_stream=stream_defects,
                   member_queries=runner.member_queries,
                   known_defect_share=defect_share,
                   known_defect_probes=probes, known_defect_probe_hits=probe_hits,
                   levels=getattr(wl, "levels", None),
                   metrics={k: v for k, (v, _) in metrics.items()})
    correct = runner.failed == 0 and defect_share <= MAX_DEFECT_SHARE
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, summary, runner.records


def main(argv=None):
    args = parse_args(argv)
    if args.cold_setup:
        return cold_setup(args)
    limit_memory()
    pin_cpu()
    clock = Clock()
    try:
        _, exc, wall, kernel = clock.time(import_program)
        if exc is not None:
            raise exc
        OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
        try:
            result, summary, records = run(args, workdir, clock, (wall, kernel))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        clock.close()
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(str(stem) + ".records.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    with open(str(stem) + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    sys.stderr.write(
        "perfbench %s seed=%d trace=%d: %d ops in %s rounds, %d failed, "
        "known defects: %d of %d member queries in the stream, %d of %d probes; "
        "digest %s\n"
        % (args.workload, args.seed, args.trace, summary["attempted"],
           summary["rounds"], summary["failed"], summary["known_defect_stream"],
           summary["member_queries"], summary["known_defect_probe_hits"],
           summary["known_defect_probes"], summary["digest"][:16]))
    if summary["known_defect_share"] > MAX_DEFECT_SHARE:
        sys.stderr.write("perfbench: not correct: known defects on more than "
                         "%g of the member queries\n" % MAX_DEFECT_SHARE)
    sys.stderr.write("perfbench: kernel median %.3f ms, speed ratio %.3f "
                     "(times are scaled by its power %g)\n"
                     % (summary["kernel_median_ms"], summary["speed_ratio"],
                        KERNEL_ELASTICITY))
    if "tail_pct" in summary:
        sys.stderr.write("perfbench: op_tail_ms is p%.1f of %d ops\n"
                         % (summary["tail_pct"], summary["ops"]))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
