"""Benchmark of spectral-atlas on the paper's three problems.

Run from the root of a checkout:

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 36 --trace 0

The process runs one workload as a closed loop with one client: after one
untimed warm-up job it works through the seed's fixed list of jobs, one at a
time, until --seconds have passed and at least MIN_JOBS jobs are done, and
checks every output outside the timed region.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports its per-layer metrics instead: it runs a fixed number of jobs twice,
once under span tracing (see spans.py) and once without, and reports the
layers' counts and times from the traced copies and the tracing overhead
from the pair.  Results and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_JOBS = 40  # so that ten jobs lie beyond the tail percentile
SETUP_REPEATS = 5
TRACED_JOBS = 16  # per traced run, each also run untraced for the overhead
LAYERS = ("cli", "phase", "kernel", "lowrank", "curves", "integrator", "continuum", "allencahn", "presets")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("portrait", "integrators", "fronts"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def build_inputs(args, workdir):
    """Import the CLI (numpy, scipy) and build the workload's jobs."""
    import spectral_atlas.cli  # noqa: F401  passes SPECTRAL_ATLAS_THREADS on to BLAS
    import workloads

    return workloads.make_jobs(args.workload, args.seed, workdir)


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports and builds inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return statistics.median(times)


class Runner:
    """Runs jobs, times them, checks their outputs and counts operations."""

    def __init__(self, prog, known_failing):
        self.prog = prog
        self.known_failing = known_failing
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, tuple[int, str]] = {}

    def run(self, job, count: bool = True) -> float:
        outs = []
        t0 = time.perf_counter()
        for op in job:
            try:
                outs.append((op, op.run(self.prog), None))
            except Exception as e:  # a failed operation is counted, not fatal
                outs.append((op, None, e))
        elapsed = time.perf_counter() - t0
        for op, out, err in outs:
            if err is None:
                try:
                    op.check(out)
                except Exception as e:  # malformed output fails its check too
                    err = e
            if count:
                self.attempted += 1
                if err is not None:
                    self.failed += 1
                    n, _ = self.failures.get(op.name, (0, ""))
                    self.failures[op.name] = (n + 1, f"{type(err).__name__}: {err}")
        return elapsed

    @property
    def correct(self) -> bool:
        """No operation failed other than the known faulty ones."""
        return all(name in self.known_failing for name in self.failures)


def tail(times):
    """The highest percentile of job time with ten jobs beyond it."""
    return sorted(times)[len(times) - 11]


def throughput(times, window: int):
    """Median of the jobs per second of consecutive windows of `window` jobs.

    The median keeps a few seconds of a slow machine from moving the whole
    run's figure.
    """
    n = len(times) - len(times) % window
    return statistics.median(window / sum(times[i : i + window]) for i in range(0, n, window))


def per_layer_value(name: str, summary: dict, overhead_pct: float) -> float:
    if name == "trace.overhead_pct":
        return overhead_pct
    if name.endswith(".self_s"):
        return summary["self_s"].get(name[: -len(".self_s")], 0.0)
    if name.endswith(".calls"):
        return summary["calls"].get(name[: -len(".calls")], 0)
    if name.endswith(".s"):
        return summary["busy_s"].get(name[: -len(".s")], 0.0)
    raise KeyError(f"no rule for per-layer metric {name!r}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "spectral_atlas", "cli.py")):
        print("run.py: run from the root of a spectral-atlas checkout (no src/spectral_atlas)", file=sys.stderr)
        return 2
    # the program's documented thread cap, set before numpy is imported
    os.environ["SPECTRAL_ATLAS_THREADS"] = "1"
    sys.path.insert(0, src)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, "out"))
    try:
        if args.setup_only:
            build_inputs(args, workdir)
            return 0
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, workdir) -> int:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    setup_s = None if args.trace else measure_setup(args)

    jobs = build_inputs(args, workdir)
    import spectral_atlas
    import workloads
    from spectral_atlas import allencahn, cli

    prog = types.SimpleNamespace(cli=cli, allencahn=allencahn)
    runner = Runner(prog, workloads.KNOWN_FAILING)
    runner.run(jobs[0], count=False)  # warm-up: lazy imports, caches, allocator

    if args.trace == 0:
        times = []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < args.seconds or len(times) < MIN_JOBS:
            times.append(runner.run(jobs[len(times) % len(jobs)]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": setup_s,
            # a window of one rotation holds one job of each portrait problem kind
            "jobs_per_s": throughput(times, len(workloads.PORTRAIT_SIZES)),
            "job_s_p50": statistics.median(times),
            "job_s_tail": tail(times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        note = f"{len(times)} jobs, tail = p{100.0 * (len(times) - 10) / len(times):.1f}"
    else:
        import spans

        tracer = spans.Tracer(spectral_atlas, LAYERS)
        plain = traced = 0.0
        for i in range(TRACED_JOBS):
            job = jobs[i % len(jobs)]
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced += runner.run(job)
                    finally:
                        tracer.uninstall()
                else:
                    plain += runner.run(job)
        summary = tracer.summary()
        overhead_pct = 100.0 * (traced / plain - 1.0)
        metrics = {
            m["name"]: {"value": per_layer_value(m["name"], summary, overhead_pct), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        tracer.write(os.path.join(HERE, "out", f"{args.workload}-spans.csv"))
        note = f"{TRACED_JOBS} jobs traced, {len(tracer.start)} spans, overhead {overhead_pct:.1f}%"

    for name, (n, reason) in sorted(runner.failures.items()):
        known = "known fault" if name in runner.known_failing else "UNEXPECTED"
        print(f"run.py: {name} failed {n}x ({known}): {reason}", file=sys.stderr)
    print(f"run.py: {args.workload} seed {args.seed}: {note}", file=sys.stderr)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
