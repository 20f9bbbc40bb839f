"""Benchmark of the reduktor solvers, oracles and CLI.

Run from the root of a checkout:

    python3 benchmark/run.py --workload march|oracle|cli --seed N --seconds S --trace 0|1

One run times set-up over fresh interpreters, runs one warm-up job, then
repeats the workload's job until S seconds have passed, checking every
job's outputs against exact solutions.  Library calls made in this process
are reported at a reference machine speed (SpeedClock); CLI processes and
set-up are timed by the wall clock.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See benchmark/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every process it starts; set before
# numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("march", "oracle", "cli")
# Seconds the calibration loop takes at the reference speed of the machine
# in README.md; timings are reported at that speed.
CALIBRATION_REF_S = 0.040


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: import and build the inputs, then exit")
    return p.parse_args(argv)


def probe(args):
    """Fresh-interpreter set-up: import the library and build the inputs."""
    t0 = time.perf_counter()
    importlib.import_module("reduktor.cli" if args.workload == "cli" else "reduktor")
    t1 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


class SpeedClock:
    """The machine's speed, from a calibration loop sampled between calls.

    The host's speed drifts by tens of percent within seconds (README.md,
    Machine).  After every library call a job makes in this process, a
    fixed loop of small numpy products and Python arithmetic, none of it
    library code, is timed.  ``factor`` is CALIBRATION_REF_S over the mean
    of the run's samples: wall times multiplied by it are times at the
    reference speed.
    """

    def __init__(self):
        import numpy as np
        self._a = np.full((3, 3), 1.0 / 3.0)
        self._stack = np.linspace(0.0, 1.0, 1800).reshape(200, 3, 3)
        self._einsum = np.einsum
        self.samples = [self._calibrate()]

    def _calibrate(self):
        t0 = time.perf_counter()
        for _ in range(2):
            x = self._a
            for _ in range(300):
                x = self._a @ x + 1e-3 * self._einsum("tij,tjk->ik", self._stack, self._stack)
            acc = 0
            for i in range(3000):
                acc += i * i
        return time.perf_counter() - t0

    def begin(self):
        self.wall = 0.0
        self._t0 = time.perf_counter()

    def mark(self):
        """End one segment of a job and take a calibration sample."""
        self.wall += time.perf_counter() - self._t0
        self.samples.append(self._calibrate())
        self._t0 = time.perf_counter()

    @property
    def factor(self):
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def time_setup(args):
    """Median wall time of SETUP_PROBES fresh interpreters; their import time.

    Plain wall time: the calibration in this process does not follow the
    speed a child process gets.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--probe"]
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    print("set-up wall seconds: " + " ".join(f"{w:.3f}" for w in walls)
          + "; import seconds: " + " ".join(f"{i:.3f}" for i in imports), file=sys.stderr)
    return statistics.median(walls), statistics.median(imports)


class Job:
    """One attempted job: wall time (calibration excluded), checks, err_max."""

    def __init__(self, wl, tr, clock):
        import workloads
        self.check = workloads.Check()
        self.out = None
        clock.begin()
        try:
            self.out = wl.job(tr, clock.mark)
        except Exception as exc:  # a library error fails this job; the run goes on
            self.check.fail(f"{type(exc).__name__}: {exc}")
        clock.mark()
        self.wall = clock.wall
        if self.out is not None:
            try:
                wl.verify(self.out, self.check)
            except Exception as exc:  # unreadable output fails the job
                self.check.fail(f"verify: {type(exc).__name__}: {exc}")
        self.tracer = tr

    @property
    def failed(self):
        return bool(self.check.failures)


def layer_metrics(job, wl_name):
    """Per-layer figures of one traced job, from its spans and counters."""
    tr = job.tracer
    total, own = tr.totals()
    c = tr.counts
    conv_s = own["volterra.march_solve"] + own["volterra.march_solve_general"]
    mc_total = total["jump_mc.monte_carlo_average"]
    split = c["jump_mc.split_histories"]
    runs = {cmd: wall for cmd, _, wall, _ in job.out["runs"]} if wl_name == "cli" else {}
    return {
        "channels.m_many_s": own["channels.m_many"],
        "channels.m_many_calls": c["channels.m_many_calls"],
        "channels.m_many_points": c["channels.m_many_points"],
        "volterra.march_s": own["volterra.march_solve"],
        "volterra.general_s": own["volterra.march_solve_general"],
        "volterra.conv_gflops": c["volterra.conv_flops"] / conv_s / 1e9 if conv_s else 0.0,
        "volterra.series_s": own["volterra.neumann_series_trajectory"],
        "volterra.series_levels": c["volterra.series_levels"],
        "jump_mc.mc_s": own["jump_mc.monte_carlo_average"],
        "jump_mc.histories_per_s": c["jump_mc.histories"] / mc_total if mc_total else 0.0,
        "jump_mc.sample_us": total["jump_mc.sample"] / split * 1e6 if split else 0.0,
        "jump_mc.evolve_us": total["jump_mc.evolve"] / split * 1e6 if split else 0.0,
        "dstoch.residual_s": total["dstoch.residual"],
        "dstoch.compression_s": total["dstoch.compression_many"],
        "volterra.csv_s": total["volterra.csv"],
        "cli.out_kb": c["cli.out_bytes"] / 1024.0,
        "scalar.march_s": total["scalar.scalar_march"],
        "scalar.steps_s": total["scalar.piecewise_delay_solve"],
        "asymptotics.report_s": own["asymptotics.convergence_report"],
        "cli.solve_s": runs.get("solve", 0.0),
        "cli.asymptote_s": runs.get("asymptote", 0.0),
        "cli.genericity_s": runs.get("genericity", 0.0),
        "cli.scalar_s": runs.get("scalar", 0.0),
    }


def declared_units(trace):
    """Metric units from BENCHMARK.json, which names every metric a run reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "reduktor" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    if args.probe:
        return probe(args)

    # The traced run reports no set-up time, only the cli import time.
    if not args.trace or args.workload == "cli":
        setup_s, import_s = time_setup(args)
    import reduktor
    if not Path(reduktor.__file__).resolve().is_relative_to(SRC):
        print(f"error: reduktor imported from {reduktor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    clock = SpeedClock()
    rundir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    wl.rundir = rundir
    try:
        jobs = [Job(wl, spans.NullTracer(), clock)]  # warm-up
        timed, traced = [], []
        start = time.perf_counter()
        # A traced run alternates untraced and traced jobs, one of each at least.
        while not timed or (args.trace and not traced) \
                or time.perf_counter() - start < args.seconds:
            if args.trace and len(traced) < len(timed):
                traced.append(Job(wl, spans.Tracer(), clock))
            else:
                timed.append(Job(wl, spans.NullTracer(), clock))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    jobs += timed + traced
    scale = clock.factor if wl.RESCALED else 1.0
    print(f"job wall seconds: {' '.join(f'{j.wall:.3f}' for j in jobs)}; scale {scale:.4f}",
          file=sys.stderr)
    print("calibration seconds: " + " ".join(f"{c:.4f}" for c in clock.samples),
          file=sys.stderr)
    for job in jobs:
        for msg in job.check.failures:
            print(f"check failed: {msg}", file=sys.stderr)

    job_s = statistics.median(j.wall for j in timed) * scale
    if args.trace:
        per_job = [layer_metrics(j, args.workload) for j in traced if j.out is not None]
        values = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]} \
            if per_job else {}
        values["cli.import_s"] = import_s if args.workload == "cli" else 0.0
        traced_s = statistics.median(j.wall for j in traced) * scale
        values["trace.job_s"] = traced_s
        values["trace.overhead_s"] = traced_s - job_s
        tracedir = ROOT / ".bench_traces"
        tracedir.mkdir(exist_ok=True)
        traced[0].tracer.dump(tracedir / f"{args.workload}-seed{args.seed}.json",
                              workload=args.workload, seed=args.seed)
    else:
        if args.workload == "cli":
            rss = max(r[3] for j in jobs if j.out for r in j.out["runs"])
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "job_s": job_s, "peak_rss_mb": rss,
                  "err_max": max(j.check.err for j in jobs)}
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    failed = sum(j.failed for j in jobs)
    correct = not any(j.check.failures for j in jobs if j.out is not None)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
