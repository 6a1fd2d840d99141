"""Spans around the public functions each pushdp layer exposes.

A hook replaces one attribute, at the name its caller looks it up by (for
example ``pushdp.engine.per_sample_gradient``, which ``engine.run`` calls),
with a wrapper that times the call and counts it.  Each call is a span: its
duration is charged to the hook's total, and to the enclosing span's child
time, so that a span's self time is its duration minus the spans nested in it.
A layer's busy time counts only its outermost spans, so nested calls inside
one layer (``PrivacySpec.resolve`` calling ``mu_tot_from_eps_delta``) are not
counted twice.

A hook whose target no longer exists (a refactor removed or renamed it) is
skipped and listed in ``Tracer.missing``; its counts and times stay zero.

Only the boundary hooks (engine run, metrics CSV write, schedule table) are
installed for the timed runs: they are called a few times per job and cost
microseconds.  The full set is installed only for the separate traced jobs.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Hook:
    stat: str  # "<layer>.<name>"; several hooks may share one stat
    module: str
    attr: str  # "name" or "Class.name"
    boundary: bool = False  # also installed for untraced, timed jobs
    post: Callable | None = None  # post(tracer, stat, result, args) after each call

    @property
    def layer(self) -> str:
        return self.stat.split(".", 1)[0]


def _keep_log(tracer, stat, log, args):
    tracer.logs.append(log)
    stat[3] += len(log.rows)


def _count_file_bytes(tracer, stat, result, args):
    stat[3] += os.path.getsize(args[1])


def _count_text_bytes(tracer, stat, text, args):
    stat[3] += len(text)  # the table is ASCII


HOOKS = (
    Hook("models.grad", "pushdp.engine", "per_sample_gradient"),
    Hook("models.eval", "pushdp.engine", "evaluate"),
    Hook("models.synth", "pushdp.cli", "synth_dataset"),
    Hook("engine.run", "pushdp.cli", "run", boundary=True, post=_keep_log),
    Hook("topology.build", "pushdp.cli", "graph_schedule"),
    Hook("topology.connectivity", "pushdp.cli", "spectral_report"),
    Hook("topology.validate", "pushdp.topology", "validate_column_stochastic"),
    Hook("topology.validate", "pushdp.engine", "validate_column_stochastic"),
    Hook("topology.matrix_at", "pushdp.topology", "GraphSchedule.matrix_at"),
    Hook("accountant.mu_tot", "pushdp.cli", "mu_tot_from_eps_delta"),
    Hook("accountant.mu_tot", "pushdp.accountant", "mu_tot_from_eps_delta"),
    Hook("accountant.resolve", "pushdp.accountant", "PrivacySpec.resolve"),
    Hook("accountant.solve_mu0", "pushdp.schedule", "solve_mu0"),
    Hook("accountant.uniform_budget", "pushdp.schedule", "uniform_budget"),
    Hook("accountant.compose", "pushdp.cli", "compose_general"),
    Hook("schedule.build", "pushdp.cli", "build_schedule"),
    *(
        Hook("schedule.lookup", "pushdp.schedule", f"{cls}.{method}")
        for cls in ("NoiseSchedule", "GeneralSchedule")
        for method in ("clip_bound_at", "budget_at", "sigma_at")
    ),
    Hook("schedule.table", "pushdp.schedule", "NoiseSchedule.table_csv", True, _count_text_bytes),
    Hook("metrics.consensus", "pushdp.engine", "mean_sq_consensus"),
    Hook("metrics.write", "pushdp.metrics", "MetricsLog.write_csv", True, _count_file_bytes),
    Hook("metrics.summarize", "pushdp.cli", "summarize"),
)


class Tracer:
    """Installs a set of hooks and accumulates their spans for one job at a time.

    ``stats[stat]`` is ``[calls, total_s, self_s, extra]`` (extra holds rows or
    bytes, where a hook counts them) and ``layers[layer]`` is ``[outer_calls,
    busy_s]``; ``root_child_s`` is the time the job spent inside any span.
    """

    def __init__(self, full: bool):
        self.hooks = [h for h in HOOKS if full or h.boundary]
        self.stats = {h.stat: [0, 0.0, 0.0, 0] for h in self.hooks}
        self.layers = {h.layer: [0, 0.0] for h in self.hooks}
        self._depth = {h.layer: 0 for h in self.hooks}
        self._frames: list[list[float]] = [[0.0]]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.logs: list = []

    @property
    def root_child_s(self) -> float:
        return self._frames[0][0]

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        for layer in self.layers.values():
            layer[:] = [0, 0.0]
        self._frames[:] = [[0.0]]
        self.logs.clear()

    def total(self, stat: str) -> float:
        return self.stats[stat][1]

    def _wrap(self, fn, hook: Hook):
        frames, depth, tracer = self._frames, self._depth, self
        stat, layer, post = self.stats[hook.stat], hook.layer, hook.post
        layer_stat = self.layers[layer]

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[layer] -= 1
                frames.pop()
                frames[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if outer:
                    layer_stat[0] += 1
                    layer_stat[1] += dt
            if post is not None:
                post(tracer, stat, result, args)
            return result

        return traced

    def install(self) -> None:
        self.missing.clear()
        for hook in self.hooks:
            try:
                owner = importlib.import_module(hook.module)
            except ImportError:
                owner = None
            *path, name = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # A class attribute is read raw, so a classmethod is seen as one.
            raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
            if raw is None:
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            if isinstance(raw, classmethod):
                new = staticmethod(self._wrap(getattr(owner, name), hook))
            else:
                new = self._wrap(raw, hook)
            self._saved.append((owner, name, raw))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
