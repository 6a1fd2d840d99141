"""pushdp benchmark: time documented CLI subcommands end to end, or split them by layer.

    python3 bench/run.py --workload logistic-n20 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One process generates the load: after one warm-up job it
runs pairs of jobs, each pair on one config drawn from ``--seed``, until
``--seconds`` have passed.  The second job of a pair must reproduce the first
byte for byte; the first is checked for content (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics over the timed jobs:

* ``job_s``: wall time of one whole subcommand invocation.
* ``setup_s``: ``job_s`` minus time inside ``engine.run`` and minus output
  writing (``MetricsLog.write_csv``, the accountant's schedule table).
* ``node_steps_per_s``: ``n * K`` node-rounds per leg over the time inside
  ``engine.run``.  The accountant trains nothing; there it is the ``K``
  schedule rounds resolved per second of ``job_s``.
* ``peak_rss_mb``: peak resident memory of the process when its first job returns.

On a shared machine the CPU's speed drifts with its neighbours' load, for
spans as long as a whole run.  So the run also times a fixed pure-Python loop,
the yardstick, before every timed job and after the last, and reports each
time as the mean over its jobs scaled by ``YARDSTICK_S`` over the yardstick's
mean time: seconds on a machine as fast as the one ``YARDSTICK_S`` was taken
on.  Jobs and yardstick see the same mix of fast and slow spells, so the ratio
keeps the program's cost and drops most of the drift; it is a ratio of means
because a median would follow whichever spell held most of the run.  The raw
per-job wall times and the measured yardstick are printed alongside.

``--trace 1`` alternates untraced and traced jobs (see ``tracing.py``) and
reports the per-layer split as per-job medians over the traced ones, plus
``trace.overhead_s``, the median of traced minus untraced ``job_s`` per pair.

The first line of standard output is a JSON record of the workload, why it
was chosen, the seed, Python/numpy/scipy versions, CPU count, BLAS thread cap,
yardstick time, fail rate and problems found; then one line per metric with
its reported value and the median, quartiles and range of its raw per-job
values; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the pushdp
sources under ``src/`` it prints no result and exits 2.
"""

from __future__ import annotations

import os

# One BLAS thread: load comes from this one process, and its timings stay
# steady on a shared machine.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import checks
from tracing import Tracer
from workloads import WORKLOADS, render_ini

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The yardstick's time when uncontended on a 2-vCPU x86-64 VM (Python 3.11).
YARDSTICK_ROUNDS = 100_000
YARDSTICK_S = 0.0065


def yardstick() -> float:
    """Wall time of a fixed pure-Python loop, a probe of the CPU's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(YARDSTICK_ROUNDS):
        acc += i * i
    return perf_counter() - t0


@dataclass
class Job:
    job_s: float
    engine_s: float
    output_s: float
    traced: bool
    completed: bool  # exited 0; its timings count even when a check fails
    peak_rss_mb: float  # process peak so far, read as the job returns
    digest: str
    problems: list[str]
    layers: dict = field(default_factory=dict)


def training_logs(workload, out_path: str, tracer) -> list[tuple[str, str]]:
    """(variant, metrics CSV text) for each engine run of a finished job."""
    if workload.command == "run":
        return [(workload.legs[0], Path(out_path).read_text())]
    return [(variant, log.csv_text()) for variant, log in zip(workload.legs, tracer.logs)]


def check_job(workload, config, stdout, out_path, tracer, reference) -> list[str]:
    if workload.command == "accountant":
        return checks.check_accountant(stdout, out_path, config)
    logs = training_logs(workload, out_path, tracer)
    if len(logs) != len(workload.legs):
        return [f"saw {len(logs)} engine runs, expected {len(workload.legs)}"]
    problems, stats = [], {}
    for variant, text in logs:
        found, stats[variant] = checks.check_training_log(text, variant, workload.K, reference[variant])
        problems += found
    if workload.command == "compare":
        problems += checks.check_compare_table(out_path, stats)
    return problems


def layer_metrics(t, job_s: float) -> dict:
    """Per-layer figures of one traced job, named as in BENCHMARK.json."""
    s, layers = t.stats, t.layers

    def calls(key):
        return s[key][0]

    def total(key):
        return s[key][1]

    return {
        "models.grad_calls": calls("models.grad"),
        "models.grad_s": total("models.grad"),
        "models.eval_calls": calls("models.eval"),
        "models.eval_s": total("models.eval"),
        "models.synth_s": total("models.synth"),
        "engine.run_s": total("engine.run"),
        "engine.rounds": s["engine.run"][3],
        "engine.self_s": s["engine.run"][2],
        "topology.build_s": total("topology.build"),
        "topology.connectivity_s": total("topology.connectivity"),
        "topology.validate_calls": calls("topology.validate"),
        "topology.matrix_at_calls": calls("topology.matrix_at"),
        "accountant.calls": layers["accountant"][0],
        "accountant.busy_s": layers["accountant"][1],
        "schedule.build_s": total("schedule.build"),
        "schedule.lookup_calls": calls("schedule.lookup"),
        "schedule.lookup_s": total("schedule.lookup"),
        "schedule.table_s": total("schedule.table"),
        "schedule.table_bytes": s["schedule.table"][3],
        "metrics.consensus_calls": calls("metrics.consensus"),
        "metrics.consensus_s": total("metrics.consensus"),
        "metrics.write_s": total("metrics.write"),
        "metrics.bytes_written": s["metrics.write"][3],
        "metrics.summarize_s": total("metrics.summarize"),
        "cli.self_s": job_s - t.root_child_s,
    }


class Bench:
    def __init__(self, workload, workdir: Path, reference: dict):
        import pushdp.cli

        self.cli = pushdp.cli
        self.workload = workload
        self.reference = reference
        self.config_path = str(workdir / "job.ini")
        self.out_path = str(workdir / "out.csv")
        self.timers = Tracer(full=False)
        self.tracer = Tracer(full=True)
        self.missing: set[str] = set()

    def run_job(self, config: dict, traced: bool, previous: Job | None = None) -> Job:
        """One timed subcommand; checked in full, or against ``previous`` when it reruns it."""
        Path(self.config_path).write_text(render_ini(config))
        hooks = self.tracer if traced else self.timers
        hooks.reset()
        hooks.install()
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                t0 = perf_counter()
                code = self.cli.main(self.workload.argv(self.config_path, self.out_path))
                job_s = perf_counter() - t0
        finally:
            hooks.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.missing.update(hooks.missing)
        job = Job(
            job_s=job_s,
            engine_s=hooks.total("engine.run"),
            output_s=hooks.total("metrics.write") + hooks.total("schedule.table"),
            traced=traced,
            completed=code == 0,
            peak_rss_mb=peak_rss_mb,
            digest="",
            problems=[],
            layers=layer_metrics(hooks, job_s) if traced else {},
        )
        if code != 0:
            job.problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
            return job
        job.digest = hashlib.sha256(
            (stdout.getvalue() + checks.file_digest(self.out_path)).encode()
        ).hexdigest()
        if previous is not None:
            if job.digest != previous.digest:
                job.problems.append("rerun with the same config is not byte-identical")
            else:  # same bytes, same faults
                job.problems += previous.problems
            return job
        try:
            job.problems += check_job(
                self.workload, config, stdout.getvalue(), self.out_path, hooks, self.reference
            )
        except (KeyError, ValueError, IndexError, OSError) as exc:
            job.problems.append(f"output unreadable: {exc!r}")
        return job


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path, reference: dict):
    bench = Bench(workload, workdir, reference)
    rng = random.Random(f"{workload.name}:{seed}")
    jobs = [bench.run_job(workload.draw(rng), traced=False)]  # warm-up, checked, not timed
    overhead: list[float] = []
    probes: list[float] = []
    deadline = perf_counter() + seconds
    pair = 0
    while pair == 0 or perf_counter() < deadline:
        config = workload.draw(rng)
        # In traced runs a pair is one traced and one untraced job, in alternating order.
        order = (pair % 2 == 1, pair % 2 == 0) if trace else (False, False)
        probes.append(yardstick())
        first = bench.run_job(config, traced=order[0])
        probes.append(yardstick())
        second = bench.run_job(config, traced=order[1], previous=first)
        jobs += [first, second]
        if trace and first.completed and second.completed:
            traced, plain = (first, second) if first.traced else (second, first)
            overhead.append(traced.job_s - plain.job_s)
        pair += 1
    probes.append(yardstick())
    return jobs, overhead, probes, sorted(bench.missing)


def end_to_end(workload, good: list[Job], warm_up: Job, probes: list[float]) -> dict:
    """name -> (reported value, unit, raw per-job values)."""
    scale = YARDSTICK_S / statistics.fmean(probes)
    job = [j.job_s for j in good]
    setup = [j.job_s - j.engine_s - j.output_s for j in good]
    busy = [j.engine_s for j in good] if workload.legs else job
    steps_per_job = workload.n * workload.K * len(workload.legs) if workload.legs else workload.K
    return {
        "job_s": (statistics.fmean(job) * scale, "s", job),
        "setup_s": (statistics.fmean(setup) * scale, "s", setup),
        "node_steps_per_s": (
            steps_per_job / (statistics.fmean(busy) * scale),
            "1/s",
            [steps_per_job / b for b in busy],
        ),
        # A user's process runs one job, so later jobs' heap growth is not theirs.
        "peak_rss_mb": (warm_up.peak_rss_mb, "MB", [warm_up.peak_rss_mb]),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(("_bytes", "bytes_written")) else "count"


def per_layer(good: list[Job], overhead: list[float]) -> dict:
    """name -> (median per traced job, unit, per-job values)."""
    traced = [j.layers for j in good if j.traced]
    out = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        out[name] = (statistics.median(values), layer_unit(name), values)
    overhead = overhead or [0.0]
    out["trace.overhead_s"] = (statistics.median(overhead), "s", overhead)
    return out


def environment(workload, seed: int, jobs: list[Job], probes: list[float], missing: list[str]) -> dict:
    failed = [j for j in jobs if j.problems]
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "yardstick_s": statistics.fmean(probes),
        "yardstick_nominal_s": YARDSTICK_S,
        "jobs": len(jobs),
        "fail_rate": len(failed) / len(jobs),
        "missing_hooks": missing,
        "problems": sorted({p for j in failed for p in j.problems})[:10],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pushdp" / "cli.py").is_file():
        print(f"error: no pushdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pushdp

    if not Path(pushdp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pushdp from {pushdp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
    workdir = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    try:
        jobs, overhead, probes, missing = measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir, reference
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [j for j in jobs[1:] if j.completed]  # the warm-up job is not timed
    info = environment(workload, args.seed, jobs, probes, missing)
    print(json.dumps(info))
    if not good or (args.trace and not any(j.traced for j in good)):
        print("error: no timed job completed", file=sys.stderr)
        return 1
    if workload.legs and "pushdp.cli.run" in missing:
        print("error: cannot time engine runs without the pushdp.cli.run hook", file=sys.stderr)
        return 1
    table = per_layer(good, overhead) if args.trace else end_to_end(workload, good, jobs[0], probes)
    metrics = {}
    for name, (value, unit, values) in table.items():
        q1, med, q3 = quartiles(values)
        print(
            f"{name:<26} {value:>14.6g} {unit:<6} raw over {len(values)} jobs: median {med:.6g}, "
            f"quartiles {q1:.6g}..{q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"
        )
        metrics[name] = {"value": value, "unit": unit}
    failed = sum(1 for j in jobs if j.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
