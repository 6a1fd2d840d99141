"""Derive the bands in ``reference.json`` that each engine run's figures must fall in.

    python3 bench/calibrate.py --jobs 40 > bench/reference.json

Runs ``--jobs`` configs of each training workload, drawn from calibration
seeds that the benchmark's own seeds never reach (the rng is keyed by a
different string), and bands three figures of every engine run
(``checks.training_stats``): the final loss, the final accuracy and the
round-mean consensus error.  Each is positive and skewed to the right (for the
accuracy, read its error rate ``1 - accuracy``), so a band is the mean plus or
minus ``K_SD`` standard deviations of the figure's logarithm, mapped back.
Both edges bind and none is clamped.  Eight standard deviations leave room
for the error of a 40-draw estimate and for tails heavier than Gaussian, so a
correct run falls outside with negligible probability.

The same configs then run again with the noise switched off in every leg
(the engine's ``noise_enabled = False``, set by wrapping ``pushdp.cli.run``):
a private leg that behaves like a non-private one, as a broken node phase
might.  The engine then logs ``sigma_k = 0``, which the schedule checks catch;
the bands are meant to catch such a leg even where its log looks right.  Per
band of a private leg, ``noise_free_inside`` records the share of these runs
that fall inside it.  Calibration fails unless each noise-free run falls
outside some band, so the checks are known to catch such a leg.  The final
loss and accuracy bands alone do not separate the two: the noise moves them by
less than their spread over seeds.  The consensus band does, since the
injected noise is most of the spread between the nodes' iterates.

Re-run this whenever a workload's config changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import run as bench_run  # sets the BLAS cap before numpy loads
from checks import parse_metrics_csv, training_stats, within
from workloads import WORKLOADS

K_SD = 8.0


def band(name: str, values: list[float]) -> list[float]:
    as_error = name == "final_accuracy"
    logs = [math.log(1.0 - v if as_error else v) for v in values]
    mean, sd = statistics.fmean(logs), statistics.stdev(logs)
    lo, hi = math.exp(mean - K_SD * sd), math.exp(mean + K_SD * sd)
    return [1.0 - hi, 1.0 - lo] if as_error else [lo, hi]


def collect(bench, configs: list[dict], strict: bool = True) -> dict:
    """variant -> ``training_stats`` of each engine run of the jobs ``configs`` give.

    With ``strict``, a job that fails any check stops calibration.
    """
    seen = defaultdict(list)
    for config in configs:
        job = bench.run_job(config, traced=False)
        if strict and job.problems:
            raise SystemExit(f"{bench.workload.name}: {job.problems}")
        for variant, text in bench_run.training_logs(bench.workload, bench.out_path, bench.timers):
            seen[variant].append(training_stats(*parse_metrics_csv(text)[1:]))
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=40)
    args = parser.parse_args()
    sys.path.insert(0, str(bench_run.SRC))
    import pushdp.cli

    run = pushdp.cli.run

    def noise_free(config):
        return run(dataclasses.replace(config, noise_enabled=False))

    out = {}
    workdir = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=bench_run.ROOT))
    try:
        for workload in WORKLOADS.values():
            if not workload.legs:
                continue
            unbounded = defaultdict(lambda: [-math.inf, math.inf])
            bench = bench_run.Bench(workload, workdir, {leg: unbounded for leg in workload.legs})
            rng = random.Random(f"calibrate:{workload.name}")
            configs = [workload.draw(rng) for _ in range(args.jobs)]
            seen = collect(bench, configs)
            pushdp.cli.run = noise_free
            try:
                quiet = collect(bench, configs, strict=False)
            finally:
                pushdp.cli.run = run
            out[workload.name] = {}
            for variant, runs in seen.items():
                bands = {name: band(name, [r[name] for r in runs]) for name in runs[0]}
                if variant != "nonprivate":
                    controls = quiet[variant]
                    inside = {
                        name: sum(within(r[name], edges) for r in controls) / len(controls)
                        for name, edges in bands.items()
                    }
                    passed = sum(all(within(r[n], e) for n, e in bands.items()) for r in controls)
                    if passed:
                        print(f"{workload.name} {variant}: {passed} noise-free runs pass", file=sys.stderr)
                        return 1
                    bands["noise_free_inside"] = inside
                out[workload.name][variant] = bands
                print(f"{workload.name} {variant}: {bands}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
