"""The benchmark's workloads: which pushdp subcommand a job runs, on which config.

Every job is one documented CLI invocation (``run``, ``compare`` or
``accountant``) over an INI config that uses only the keys the README shows.  The
workload seed feeds a ``random.Random`` that draws the per-job inputs, so the
same seed gives the same job sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The README's logistic experiment with one replicate per job; K is set per workload.
README_CONFIG = {
    "run": {"n": 20, "K": 2000, "gamma": 0.1, "seed": 0, "repeat": 1},
    "privacy": {"epsilon": 0.3, "delta": 0.0001},
    "schedule": {"variant": "dyn", "c0": 2.0, "rho_c": 4.0, "rho_mu": 4.0},
    "graph": {"kind": "exponential"},
    "task": {"model": "logistic", "J": 250, "d_in": 10},
}


def _with(base: dict, **sections) -> dict:
    out = {name: dict(keys) for name, keys in base.items()}
    for name, keys in sections.items():
        out.setdefault(name, {}).update(keys)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # pushdp subcommand
    config: dict  # section -> {key: value}
    args: tuple = ()  # extra subcommand arguments besides --config and the output
    legs: tuple = ()  # variant of each engine.run call a job makes, in order
    vary: str = "run.seed"  # config key drawn from the workload seed for each job
    value: Callable[[random.Random], object] = lambda rng: rng.randrange(1 << 31)

    @property
    def n(self) -> int:
        return int(self.config["run"]["n"])

    @property
    def K(self) -> int:
        return int(self.config["run"]["K"])

    def draw(self, rng: random.Random) -> dict:
        """Config of the next job: the workload config with its varied key drawn."""
        section, key = self.vary.split(".")
        return _with(self.config, **{section: {key: self.value(rng)}})

    def argv(self, config_path: str, output_path: str) -> list[str]:
        flag = "--table" if self.command == "accountant" else "--output"
        return [self.command, "--config", config_path, *self.args, flag, output_path]


def render_ini(config: dict) -> str:
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="logistic-n20",
            why="README logistic run: 20 single-sample gradients per round dominate, "
            "so a batched node phase shows here; setup is under 1%",
            command="run",
            config=_with(README_CONFIG, run={"K": 200}),
            legs=("dyn",),
        ),
        Workload(
            name="net-n256",
            why="compare dyn vs non-private at n=256: BFS connectivity check and data "
            "synthesis per resolve weigh on setup, and the 256x256 mix on the round",
            command="compare",
            config=_with(README_CONFIG, run={"n": 256, "K": 20}, task={"J": 64}),
            args=("--variants", "dyn"),
            legs=("dyn", "nonprivate"),
        ),
        # Not listed in BENCHMARK.json: ``accountant --table`` writes numpy reprs
        # such as ``np.float64(2.0)`` as cells under numpy 2, so every job fails its
        # table check.  Run it by name to see that defect; list it again once fixed.
        Workload(
            name="accountant-K200k",
            why="accountant --table at K=200000: privacy solve and a 20 MB schedule "
            "table with no training, so engine and model changes must leave it unchanged",
            command="accountant",
            config=_with(README_CONFIG, run={"K": 200000}),
            vary="privacy.epsilon",
            value=lambda rng: round(rng.uniform(0.3, 1.0), 6),
        ),
    )
}
