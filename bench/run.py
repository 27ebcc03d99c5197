"""Benchmark of the multicurve package: one seeded workload per run.

    python3 bench/run.py --workload spheres --seed 1 --seconds 20 --trace 0

Runs in one process with no threads, importing the package from ``src/``
of the checkout it sits in.  The load is a closed loop with one client:
each job (a command line through ``multicurve.cli.main``, or a library call)
starts when the previous one has returned and been checked.  Jobs come in
rounds of a fixed mix (see ``workloads.py``); a run measures the number of
whole rounds that takes about ``--seconds`` at the workload's nominal round
duration.

Set-up (``setup_s``) is timed in fresh interpreters: the run starts
itself with ``--setup-only`` SETUP_SAMPLES times, spread over the run, and
each child times its cold import of ``multicurve`` (numpy included),
reading the goldens, building the workload's seed-independent inputs and
one warm-up command line, and prints that time.  The seeded inputs of the
rounds are drawn before the first job, outside every timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined set of rounds twice, untraced and then with every public
function of interest wrapped (``tracer.py``), and prints the per-layer
metrics.  The last line of stdout is the result object; the line before it
is the full report with the run metadata.  Reports and spans are also
written under ``bench/results/``.
"""

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
RESULTS = HERE / "results"
SETUP_SAMPLES = 9
WARMUP_ARGV = ["generators", "n4ex"]
TAIL_BEYOND = 10


class BenchError(Exception):
    """The checkout cannot be benchmarked (sources or goldens missing)."""


def import_program():
    """Import ``multicurve`` afresh from this checkout's ``src/``."""
    package = SRC / "multicurve"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no multicurve package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "multicurve" or n.startswith("multicurve.")]:
        del sys.modules[name]
    mc = importlib.import_module("multicurve")
    importlib.import_module("multicurve.cli")
    if Path(mc.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported multicurve from {mc.__file__}")
    return mc


def load_goldens():
    """(file name, argv, expected stdout) for every golden command line."""
    manifest = GOLDEN / "manifest.json"
    if not manifest.is_file():
        raise BenchError(f"no golden manifest at {manifest}")
    return [(name, argv, (GOLDEN / name).read_bytes().decode("utf-8"))
            for name, argv in sorted(json.loads(manifest.read_text()).items())]


def set_up(workload_name):
    """Import, the workload's seed-independent inputs, and a warm-up call."""
    mc = import_program()
    wl = workloads.WORKLOADS[workload_name](mc, load_goldens())
    with contextlib.redirect_stdout(io.StringIO()):
        mc.cli.main(WARMUP_ARGV)
    return wl


def setup_only(workload_name):
    """Body of a ``--setup-only`` child: set up once, print the time."""
    t0 = time.perf_counter()
    set_up(workload_name)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def timed_setup(workload_name):
    """One set-up in a fresh interpreter, so that it pays the cold import
    of the package and its dependencies; returns the child's own time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload_name],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError("set-up failed: "
                         + (proc.stderr.strip().splitlines()
                            or ["no output"])[-1])
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Record:
    __slots__ = ("label", "seconds", "problem", "argv", "stdout_bytes")

    def __init__(self, label, seconds, problem, argv, stdout_bytes):
        self.label = label
        self.seconds = seconds
        self.problem = problem
        self.argv = argv
        self.stdout_bytes = stdout_bytes


def run_jobs(jobs, records, trace=None):
    """Closed loop over ``jobs``; appends one Record per job."""
    clock = time.perf_counter
    for job in jobs:
        if trace is not None:
            trace.open_job(job.label)
            trace.active = True
        problem = None
        t0 = clock()
        try:
            out = job.run()
        except Exception as err:  # a failed job is counted, not fatal
            out = None
            problem = f"raised {type(err).__name__}: {err}"
        seconds = clock() - t0
        if trace is not None:
            trace.active = False
            trace.close_job(problem is not None)
        if problem is None:
            try:
                problem = job.check(out)
            except Exception as err:  # a crashing check is a failed job
                problem = f"check raised {type(err).__name__}: {err}"
        stdout_bytes = len(out[1].encode()) if job.argv and out else 0
        # drop the output now, so that the next job does not run with it
        # alive and peak memory stays that of the largest single job
        del out
        records.append(Record(job.label, seconds, problem, job.argv,
                              stdout_bytes))


def run_with_setups(workload_name, jobs, records):
    """Run ``jobs`` in SETUP_SAMPLES even slices with one set-up sample
    before each; returns the set-up times.  The host's speed drifts over
    tens of seconds, so samples spread over the run, like the jobs, give a
    steadier median than samples taken back to back."""
    n, times = len(jobs), []
    for k in range(SETUP_SAMPLES):
        times.append(timed_setup(workload_name))
        run_jobs(jobs[k * n // SETUP_SAMPLES:(k + 1) * n // SETUP_SAMPLES],
                 records)
    return times


def tail(times):
    """(percentile, value): the highest whole percentile that leaves at
    least TAIL_BEYOND jobs above it, by nearest rank; the maximum when
    there are too few jobs."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return pct, ordered[rank - 1]


def end_to_end(records, setup_times):
    times = [r.seconds for r in records]
    failed = sum(1 for r in records if r.problem)
    pct, tail_s = tail(times)
    metrics = {
        "jobs_per_s": ((len(records) - failed) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "fail_frac": (failed / len(records), "ratio"),
    }
    by_label = {}
    for r in records:
        n, total = by_label.get(r.label, (0, 0.0))
        by_label[r.label] = (n + 1, total + r.seconds)
    extra = {"jobs": len(records), "failed": failed,
             "job_tail_percentile": pct, "job_seconds": sum(times),
             "setup_samples_s": setup_times,
             "jobs_by_label": {k: {"jobs": n, "seconds": s}
                               for k, (n, s) in sorted(by_label.items())}}
    return metrics, extra


def _param_rate(records, backend):
    samples = seconds = 0
    for r in records:
        if r.argv and r.argv[0] == "param" and r.argv[-1] == backend:
            samples += int(r.argv[r.argv.index("--samples") + 1])
            seconds += r.seconds
    return samples / seconds if seconds else 0.0


def per_layer(spans, untraced, traced):
    """Per-layer metrics of the traced pass; job-level rates come from the
    untraced pass over the same jobs."""
    metrics = tracer.layer_metrics(spans)
    plain = sum(r.seconds for r in untraced)
    metrics.update({
        "quadric.exact_samples_per_s": (_param_rate(untraced, "exact"),
                                        "1/s"),
        "quadric.float_samples_per_s": (_param_rate(untraced, "float"),
                                        "1/s"),
        "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced), "bytes"),
        "trace.overhead_frac": (
            (sum(r.seconds for r in traced) - plain) / plain, "ratio"),
    })
    return metrics


def run_metadata(args):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "cpu": cpu or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "MULTICURVE_THREADS": os.environ.get("MULTICURVE_THREADS"),
    }


def run(args):
    """Run one workload; returns (report, result, spans)."""
    wl = set_up(args.workload)
    rng = workloads.make_rng(args.workload, args.seed)
    records, spans = [], None
    if not args.trace:
        # a fixed number of whole rounds, so that every run of a workload
        # does the same work whatever the speed of the host
        rounds = max(1, round(args.seconds / wl.round_seconds))
        jobs = [job for _ in range(rounds) for job in wl.round(rng)]
        setup_times = run_with_setups(args.workload, jobs, records)
        metrics, extra = end_to_end(records, setup_times)
        shown = dict(metrics)
        del shown["fail_frac"]  # 0 on a correct program: see README
    else:
        deck = [wl.round(rng) for _ in range(wl.trace_rounds)]
        untraced = []
        setup_times = run_with_setups(
            args.workload, [job for jobs in deck for job in jobs], untraced)
        trace = tracer.Tracer()
        trace.install()
        try:
            for jobs in deck:
                run_jobs(jobs, records, trace)
        finally:
            trace.uninstall()
        rounds = len(deck)
        spans = trace.spans
        metrics = shown = per_layer(spans, untraced, records)
        records = untraced + records
        _, extra = end_to_end(records, setup_times)
        extra["spans"] = len(spans)
    failed = extra["failed"]
    report = {"meta": run_metadata(args), "rounds": rounds, **extra,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "problems": [f"{r.label}: {r.problem}"
                           for r in records if r.problem][:10]}
    result = {"correct": failed == 0, "attempted": extra["jobs"],
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in shown.items()}}
    return report, result, spans


def write_results(args, report, spans):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / (stem + ".json")).write_text(json.dumps(report, indent=1))
    if spans is not None:
        with gzip.open(RESULTS / (stem + "-spans.jsonl.gz"), "wt") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once in this process, print the time "
                        "and exit (used to time set-up in fresh processes)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seed is None or args.seconds is None):
        parser.error("--seed and --seconds are required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        try:
            setup_only(args.workload)
        except BenchError as err:
            print(f"bench: {err}", file=sys.stderr)
            return 2
        return 0
    try:
        report, result, spans = run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    write_results(args, report, spans)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
