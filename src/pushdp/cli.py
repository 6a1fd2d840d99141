"""Command-line front end.

Subcommands:

* ``run``        execute one configuration (optionally repeated over seeds)
                 and write one metrics CSV per replicate.
* ``compare``    run several schedule variants plus the non-private baseline
                 on identical seeds and print a mean/std table.
* ``sweep``      vary one axis (rho_c, rho_mu, epsilon, n, graph) over a list
                 of values and write a summary grid CSV.
* ``accountant`` resolve and audit a privacy schedule without training.

Each is declared once, as an entry of ``_COMMANDS`` (handler, help and own flags);
the parser is built from that table once per process, at import, and gives every
subcommand ``--config`` and ``--set``, so ``main`` only parses.

``run``, ``compare`` and ``sweep`` hand (label, config) points to ``_grid`` and
call ``run`` on each leg it yields.  The grid builds the dataset and graph and
checks connectivity once, and again only when a point's ``n`` or graph kind
differs.  It resolves each point once in ``_leg``, which makes every check and
derives K, the step size, the privacy budget and the schedule for all the point's
seeds.  In a grid of more than one point the legs at one seed carry that seed's
initial iterates and sample indices (``engine.SeedDraws``) while (n, K, J, d)
holds, for one command.  ``accountant`` audits the same leg.

Configuration lives in an INI-style file with sections [run], [privacy],
[schedule], [graph], and [task]; ``--set section.key=value`` overrides any
entry from the command line.  Each entry is declared once, as a field of
``ExperimentConfig`` whose metadata holds its section and parser.  Unknown
sections or keys, non-finite numbers and out-of-range values are rejected with
the key named.  Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .accountant import NoBracket, PrivacySpec, compose_general
from .engine import RunConfig, SeedDraws, run
from .metrics import RunSummary, csv_text, summarize
from .models import Model, Task, synth_dataset
from .schedule import VARIANTS, build_schedule
from .topology import GRAPH_KINDS, check_b_strong_connectivity, graph_schedule

NONPRIVATE = "nonprivate"
SWEEP_AXES = ("rho_c", "rho_mu", "epsilon", "n", "graph")  # named as config attributes


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 1."""


def _parse_gamma(s: str):
    if s == "corollary":
        return s
    gamma = float(s)
    if gamma < 0:
        raise ValueError("the step size must be nonnegative")
    return gamma


def _int_at_least(low: int):
    def parse(s: str) -> int:
        value = int(s)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value

    return parse


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _entry(section: str, default, parse=None, key: str | None = None):
    """A config entry: its INI section, default, parser (``type(default)`` unless
    given) and key (the attribute name unless given)."""
    meta = {"section": section, "parse": parse or type(default), "key": key}
    return dataclasses.field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    n: int = _entry("run", 8, _positive_int)
    K: int = _entry("run", 0)  # 0 means derived (only valid with gamma = corollary)
    gamma: float | str = _entry("run", 0.05, _parse_gamma)
    seed: int = _entry("run", 0, _nonnegative_int)
    repeat: int = _entry("run", 1, _positive_int)
    b_window: int = _entry("run", 0, _nonnegative_int)  # 0 means the graph period
    epsilon: float = _entry("privacy", 0.0)  # 0 means unset
    delta: float = _entry("privacy", 0.0)
    variant: str = _entry("schedule", "const")
    c0: float = _entry("schedule", 2.0)
    rho_c: float = _entry("schedule", 0.0)  # 0 means unset
    rho_mu: float = _entry("schedule", 0.0)
    graph: str = _entry("graph", "exponential", key="kind")
    matrices: str = _entry("graph", "")  # JSON list of dense matrices, explicit schedules only
    model: str = _entry("task", "logistic")
    J: int = _entry("task", 64, _positive_int)
    d_in: int = _entry("task", 10, _positive_int)
    classes: int = _entry("task", 2)
    hidden: int = _entry("task", 16, _positive_int)
    data_seed: int = _entry("task", 0, _nonnegative_int)
    separation: float = _entry("task", 3.0)


# (section, key, attribute, parser) of every entry, in declaration order
_FIELDS = [
    (f.metadata["section"], f.metadata["key"] or f.name, f.name, f.metadata["parse"])
    for f in dataclasses.fields(ExperimentConfig)
]
_BY_SECTION: dict[str, dict[str, tuple]] = {}
for _sec, _key, _attr, _parse in _FIELDS:
    _BY_SECTION.setdefault(_sec, {})[_key] = (_attr, _parse)
_AXIS_KEYS = {attr: (sec, key) for sec, key, attr, _ in _FIELDS if attr in SWEEP_AXES}


def _parse_field(section: str, key: str, value: str):
    """(attribute, parsed value) of one entry; a bad or non-finite value names its key."""
    attr, parse = _BY_SECTION[section][key]
    try:
        parsed = parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {value!r} ({exc})") from exc
    if isinstance(parsed, float) and not math.isfinite(parsed):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return attr, parsed


def parse_config(text: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse config text plus ``section.key=value`` overrides, rejecting unknowns."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    raw: dict[tuple[str, str], str] = {}
    for section in cp.sections():
        if section not in _BY_SECTION:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in _BY_SECTION[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw[(section, key)] = value
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        field, value = item.split("=", 1)
        section, key = field.split(".", 1)
        if section not in _BY_SECTION or key not in _BY_SECTION[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        raw[(section, key)] = value
    cfg = ExperimentConfig()
    for (section, key), value in raw.items():
        setattr(cfg, *_parse_field(section, key, value))
    return cfg


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)


def _build_task(cfg: ExperimentConfig) -> Task:
    try:  # Model and the class means check the [task] entries, naming their keys
        model = Model(cfg.model, cfg.d_in, cfg.classes, cfg.hidden if cfg.model == "mlp" else 0)
        dataset = synth_dataset(cfg.data_seed, cfg.n, cfg.J, cfg.d_in, cfg.classes, cfg.separation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Task(model=model, dataset=dataset)


def _setting(cfg: ExperimentConfig) -> tuple:
    """(task, graph, (B, diameter) or None for one node): what the legs of a grid
    share while n and graph kind hold, as none of it depends on seed or variant."""
    task = _build_task(cfg)
    if cfg.graph not in GRAPH_KINDS:
        raise ConfigError(f"graph.kind must be one of {GRAPH_KINDS}, got {cfg.graph!r}")
    matrices = None
    if cfg.matrices and cfg.graph != "explicit":
        raise ConfigError(f"graph.matrices is only read by an explicit schedule, not {cfg.graph!r}")
    if cfg.graph == "explicit":
        if not cfg.matrices:
            raise ConfigError("graph.matrices is required for an explicit schedule")
        try:
            matrices = json.loads(cfg.matrices)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"graph.matrices is not valid JSON: {exc}") from exc
        if not isinstance(matrices, list):
            raise ConfigError("graph.matrices must be a JSON list of matrices")
    try:
        graph = graph_schedule(cfg.graph, cfg.n, matrices)
    except (TypeError, ValueError) as exc:  # TypeError: a matrix entry is not a number
        raise ConfigError(f"graph.matrices: {exc}") from exc
    B = cfg.b_window or graph.period
    return task, graph, (B, check_b_strong_connectivity(graph, B)) if cfg.n > 1 else None


def _privacy(cfg: ExperimentConfig) -> PrivacySpec:
    """The (epsilon, delta) target of a private config, solved for mu_tot over run.K steps."""
    if cfg.epsilon == 0:
        raise ConfigError("privacy.epsilon is required for private variants")
    if cfg.epsilon < 0:
        raise ConfigError(f"privacy.epsilon must be positive, got {cfg.epsilon}")
    if not 0 < cfg.delta < 1:
        raise ConfigError("privacy.delta must lie in (0, 1)")
    try:
        return PrivacySpec.resolve(cfg.epsilon, cfg.delta, cfg.J, cfg.K)
    except NoBracket as exc:
        raise ConfigError(f"privacy.epsilon and privacy.delta: {exc}") from exc


def _corollary(cfg: ExperimentConfig, mu_tot: float) -> tuple[float, int]:
    """The corollary preset's step size 1 / (sqrt(n) J mu_tot), its product taken left to
    right, and K = n (J mu_tot)^2."""
    n, budget = cfg.n, cfg.J * mu_tot
    if budget <= math.sqrt(n):
        raise ConfigError(
            f"corollary preset needs J * mu_tot > sqrt(n); got {budget:.3f} vs {math.sqrt(n):.3f}"
        )
    return 1.0 / (math.sqrt(n) * cfg.J * mu_tot), round(n * budget**2)


def _leg(cfg: ExperimentConfig, setting: tuple) -> RunConfig:
    """A config as a RunConfig at seed ``cfg.seed`` in a ``_setting`` built for its n
    and graph: every check, the step size, K, the privacy solve and the schedule."""
    task, graph, connectivity = setting
    extra_meta: dict = {"variant": cfg.variant}

    if cfg.gamma != "corollary" and cfg.K < 1:
        raise ConfigError("run.K must be positive")
    if cfg.variant == NONPRIVATE:
        if cfg.gamma == "corollary":
            raise ConfigError("run.gamma = corollary needs a privacy budget")
        gamma, K, sched = float(cfg.gamma), cfg.K, None
    else:
        if cfg.variant not in VARIANTS:
            raise ConfigError(f"schedule.variant must be one of {VARIANTS + (NONPRIVATE,)}")
        privacy = _privacy(cfg)
        if cfg.gamma == "corollary":
            gamma, K = _corollary(cfg, privacy.mu_tot)
            privacy = dataclasses.replace(privacy, K=K)
            extra_meta["gamma_preset"] = "corollary"
        else:
            gamma, K = float(cfg.gamma), cfg.K
        try:
            rates = dict(rho_c=cfg.rho_c or None, rho_mu=cfg.rho_mu or None)
            sched = build_schedule(cfg.variant, privacy, clip0=cfg.c0, **rates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        extra_meta.update(
            epsilon=cfg.epsilon, delta=cfg.delta, mu_tot=privacy.mu_tot, mu0=float(sched.budget[0]),
            c0=float(sched.clip[0]), rho_c=sched.rho_c, rho_mu=sched.rho_mu,
        )

    if connectivity:  # none for one node
        B, diameter = connectivity
        if diameter is None:
            raise ConfigError(f"graph schedule is not strongly connected over windows of {B}")
        extra_meta.update(graph_window=B, graph_diameter=diameter)
    return RunConfig(
        task=task, graph=graph, schedule=sched, gamma=gamma, K=K, seed=cfg.seed,
        extra_meta=extra_meta,
    )


def _grid(points: list):
    """(label, leg) at each of the repeat seeds of each (label, config) point; a point's
    leg is resolved once, in a setting rebuilt only when its n or graph differs.  With
    more than one point, the legs at one seed carry one SeedDraws, held while points
    keep (n, K, J, d); ``run`` draws inside, so the draws count as engine time."""
    setting, held = None, {}  # SeedDraws by seed
    for label, cfg in points:
        if setting is None or (cfg.n, cfg.graph) != (setting[1].n, setting[1].kind):
            setting = _setting(cfg)
        leg = _leg(cfg, setting)
        for seed in range(cfg.seed, cfg.seed + cfg.repeat):
            leg_at_seed = dataclasses.replace(leg, seed=seed)
            if len(points) > 1:  # a one-point grid's legs are all at distinct seeds
                draws = SeedDraws.of(leg_at_seed)
                if held.get(seed) != draws:  # a new seed or shape
                    held[seed] = draws
                leg_at_seed.draws = held[seed]
            yield label, leg_at_seed


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def cmd_run(args, cfg: ExperimentConfig) -> int:
    stem, ext = os.path.splitext(args.output or "run.csv")  # the file name's extension only
    for _, leg in _grid([(cfg.variant, cfg)]):
        log = run(leg)
        if leg.seed == cfg.seed:
            for key in ("mu_tot", "mu0"):
                if key in log.meta:
                    print(f"{key} = {log.meta[key]}")
        path = f"{stem}{ext}" if cfg.repeat == 1 else f"{stem}_seed{leg.seed}{ext}"
        log.write_csv(path)
        print(f"wrote {path}")
    return 0


def cmd_compare(args, cfg: ExperimentConfig) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants must list at least one variant")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r} in --variants")
    points = [(v, dataclasses.replace(cfg, variant=v)) for v in variants]
    if cfg.gamma == "corollary":  # the baseline runs at the private legs' step size and K
        gamma, K = _corollary(cfg, _privacy(cfg).mu_tot)
        cfg = dataclasses.replace(cfg, gamma=gamma, K=K)
    points.append((NONPRIVATE, dataclasses.replace(cfg, variant=NONPRIVATE)))
    grid = _grid(points)
    table = [("variant", "epsilon", "delta", "final_loss", "final_accuracy")]
    rows = []
    for variant, _ in points:  # each point's cfg.repeat legs, in turn; the table reads row K-1
        legs = itertools.islice(grid, cfg.repeat)
        summaries = [summarize(run(dataclasses.replace(leg, every_round=False))) for _, leg in legs]
        stats = _mean_std([s.final_loss for s in summaries])
        stats += _mean_std([s.final_accuracy for s in summaries])
        private = variant != NONPRIVATE
        eps, delta = (f"{cfg.epsilon:g}", f"{cfg.delta:g}") if private else ("-", "-")
        spread = "{:.4f}+/-{:.4f}"
        table.append((variant, eps, delta, spread.format(*stats[:2]), spread.format(*stats[2:])))
        rows.append((variant, *((cfg.epsilon, cfg.delta) if private else ("", "")), *stats))
    print("\n".join("{:<12} {:>8} {:>8} {:>18} {:>18}".format(*row) for row in table))
    if args.output:
        names = "final_loss_mean,final_loss_std,final_accuracy_mean,final_accuracy_std"
        _write(args.output, csv_text(f"variant,epsilon,delta,{names}", zip(*rows)))
    return 0


def _apply_axis(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """A copy of ``cfg`` with one SWEEP_AXES entry set, parsed as its config key."""
    attr, parsed = _parse_field(*_AXIS_KEYS[axis], value)
    return dataclasses.replace(cfg, **{attr: parsed})


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"--axis must be one of {SWEEP_AXES}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    grid = _grid([(v, _apply_axis(cfg, args.axis, v)) for v in values])  # every value parsed first
    rows = [(args.axis, v, leg.seed, *dataclasses.astuple(summarize(run(leg)))) for v, leg in grid]
    header = ",".join(["axis", "value", "seed", *(f.name for f in dataclasses.fields(RunSummary))])
    _write(args.output or "sweep.csv", csv_text(header, zip(*rows)))
    return 0


def cmd_accountant(args, cfg: ExperimentConfig) -> int:
    setting = _setting(cfg)  # bad [task] and [graph] entries fail as for a run
    if cfg.variant == NONPRIVATE:
        raise ConfigError("the accountant needs a private schedule variant")
    leg = _leg(cfg, setting)  # the K, step size and schedule a run executes
    sched = leg.schedule
    composed = compose_general(sched.budget, 1.0 / cfg.J)
    print(f"epsilon = {cfg.epsilon:g}, delta = {cfg.delta:g}")
    print(f"mu_tot = {leg.extra_meta['mu_tot']}")
    print(f"variant = {cfg.variant}")
    print(f"mu0 = {sched.budget[0]}")
    print(f"sigma_first = {sched.sigma[0]}")
    print(f"sigma_last = {sched.sigma[-1]}")
    print(f"composed_mu_tot = {composed}")
    if args.table:
        _write(args.table, sched.table_csv())
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# name -> (handler, help, own flags as {flag: (default, help)}); a default of None
# makes the flag required.  Every subcommand also takes --config and --set.
_COMMANDS = {
    "run": (cmd_run, "execute one configuration", {
        "--output": ("", "metrics CSV path (default run.csv)"),
    }),
    "compare": (cmd_compare, "run variants plus the non-private baseline", {
        "--variants": ("dyn,dyn-clip,dyn-mu,const", "comma-separated variants"),
        "--output": ("", "optional table CSV path"),
    }),
    "sweep": (cmd_sweep, "vary one axis over a list of values", {
        "--axis": (None, f"one of {SWEEP_AXES}"),
        "--values": (None, "comma-separated values"),
        "--output": ("", "grid CSV path (default sweep.csv)"),
    }),
    "accountant": (cmd_accountant, "audit a schedule without training", {
        "--table": ("", "write the full schedule table CSV here"),
    }),
}

_PARSER = _Parser(prog="pushdp", description=__doc__.splitlines()[0])
_subparsers = _PARSER.add_subparsers(dest="command", required=True)
for _name, (_func, _help, _flags) in _COMMANDS.items():
    _sub = _subparsers.add_parser(_name, help=_help)
    _sub.set_defaults(func=_func)
    _sub.add_argument("--config", required=True, help="path to the INI config file")
    _sub.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    for _flag, (_default, _flag_help) in _flags.items():
        _sub.add_argument(_flag, default=_default, required=_default is None, help=_flag_help)


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():  # each warning as one plain stderr line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            args = _PARSER.parse_args(argv)
            return args.func(args, load_config(args.config, args.set))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # engine or I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
