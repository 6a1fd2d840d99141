"""Command-line front end.

Subcommands:

* ``run``        execute one configuration (optionally repeated over seeds)
                 and write one metrics CSV per replicate.
* ``compare``    run several schedule variants plus the non-private baseline
                 on identical seeds and print a mean/std table.
* ``sweep``      vary one axis (rho_c, rho_mu, epsilon, n, graph) over a list
                 of values and write a summary grid CSV.
* ``accountant`` resolve and audit a privacy schedule without training.

A command builds the dataset and graph and checks connectivity once, shared by
every variant and seed it runs (``sweep`` rebuilds them per ``n`` or ``graph``).
It resolves each variant once: one function, ``_leg``, makes every check and
derives K, the step size, the privacy budget and the schedule, and the seeds of
a variant's replicates share the result.  ``accountant`` audits that same leg.

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
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .accountant import NoBracket, PrivacySpec, compose_general, mu_tot_from_eps_delta
from .engine import RunConfig, run
from .metrics import summarize
from .models import Model, Task, synth_dataset
from .schedule import VARIANTS, build_schedule
from .topology import check_b_strong_connectivity, graph_schedule

NONPRIVATE = "nonprivate"
SWEEP_AXES = ("rho_c", "rho_mu", "epsilon", "n", "graph")  # named as config attributes
GRAPH_KINDS = ("ring", "exponential", "complete", "explicit")


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
    output: str = _entry("run", "")
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


def _ser_float(v) -> str:
    return repr(float(v))


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


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text for a config; parsing it back is lossless."""
    lines = []
    current = None
    for section, key, attr, _ in _FIELDS:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        value = getattr(cfg, attr)
        lines.append(f"{key} = {_ser_float(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


def _build_task(cfg: ExperimentConfig) -> Task:
    mlp = cfg.model == "mlp"
    if not mlp and cfg.model != "logistic":
        raise ConfigError(f"task.model must be logistic or mlp, got {cfg.model!r}")
    classes = cfg.classes if mlp else 2
    for key, value, low in (("classes", classes, 2), ("d_in", cfg.d_in, classes)):
        if value < low:
            raise ConfigError(f"task.{key} must be at least {low}, got {value}")
    model = Model(kind=cfg.model, d_in=cfg.d_in, classes=classes, hidden=cfg.hidden if mlp else 0)
    dataset = synth_dataset(
        cfg.data_seed, cfg.n, cfg.J, d_in=cfg.d_in, classes=model.classes, separation=cfg.separation
    )
    return Task(model=model, dataset=dataset)


def _setting(cfg: ExperimentConfig) -> tuple:
    """(task, graph, connectivity report or None for one node): what every leg of a
    command shares, since none of it depends on the seed or the variant."""
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
    return task, graph, check_b_strong_connectivity(graph, B) if cfg.n > 1 else None


def _leg(cfg: ExperimentConfig, variant: str, setting: tuple) -> RunConfig:
    """One variant of a command as a RunConfig at seed ``cfg.seed`` in the command's
    ``_setting``: every check, the step size, K, the privacy solve and the schedule."""
    n = cfg.n
    task, graph, report = setting
    extra_meta: dict = {"variant": variant}

    if cfg.gamma != "corollary" and cfg.K < 1:
        raise ConfigError("run.K must be positive")
    if variant == NONPRIVATE:
        if cfg.gamma == "corollary":
            raise ConfigError("run.gamma = corollary needs a privacy budget")
        gamma, K, sched = float(cfg.gamma), cfg.K, None
    else:
        if variant not in VARIANTS:
            raise ConfigError(f"schedule.variant must be one of {VARIANTS + (NONPRIVATE,)}")
        if not cfg.epsilon > 0:
            raise ConfigError("privacy.epsilon is required for private variants")
        if not 0 < cfg.delta < 1:
            raise ConfigError("privacy.delta must lie in (0, 1)")
        try:
            mu_tot = mu_tot_from_eps_delta(cfg.epsilon, cfg.delta)
        except NoBracket as exc:
            raise ConfigError(f"privacy.epsilon and privacy.delta: {exc}") from exc
        if cfg.gamma == "corollary":
            if cfg.J * mu_tot <= math.sqrt(n):
                raise ConfigError(
                    f"corollary preset needs J * mu_tot > sqrt(n); "
                    f"got {cfg.J * mu_tot:.3f} vs {math.sqrt(n):.3f}"
                )
            gamma = 1.0 / (math.sqrt(n) * cfg.J * mu_tot)
            K = round(n * (cfg.J * mu_tot) ** 2)
            extra_meta["gamma_preset"] = "corollary"
        else:
            gamma, K = float(cfg.gamma), cfg.K
        privacy = PrivacySpec.resolve(cfg.epsilon, cfg.delta, cfg.J, K)
        try:
            rates = dict(rho_c=cfg.rho_c or None, rho_mu=cfg.rho_mu or None)
            sched = build_schedule(variant, privacy, clip0=cfg.c0, **rates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        extra_meta.update(
            epsilon=_ser_float(cfg.epsilon),
            delta=_ser_float(cfg.delta),
            mu_tot=_ser_float(privacy.mu_tot),
            mu0=_ser_float(sched.mu0),
            c0=_ser_float(sched.clip0),
            rho_c=_ser_float(sched.rho_c),
            rho_mu=_ser_float(sched.rho_mu),
        )

    if report:  # none for one node
        if not report.is_b_connected:
            raise ConfigError(
                f"graph schedule is not strongly connected over windows of {report.window}"
            )
        extra_meta.update(graph_window=report.window, graph_diameter=report.diameter)
    return RunConfig(
        task=task, graph=graph, schedule=sched, gamma=gamma, K=K, seed=cfg.seed,
        extra_meta=extra_meta,
    )


def _output_path(base: str, default: str, seed: int, repeat: int) -> str:
    path = base or default
    if repeat <= 1:
        return path
    stem, ext = os.path.splitext(path)  # the extension of the file name, not of a directory
    return f"{stem}_seed{seed}{ext}"


def _replicates(cfg: ExperimentConfig, setting: tuple, variant: str):
    """(seed, metrics log) of each replicate of one variant, whose leg is resolved
    once and run at seeds cfg.seed .. cfg.seed + repeat - 1."""
    leg = _leg(cfg, variant, setting)
    for seed in range(cfg.seed, cfg.seed + cfg.repeat):
        yield seed, run(dataclasses.replace(leg, seed=seed))


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.output:
        cfg.output = args.output
    for seed, log in _replicates(cfg, _setting(cfg), cfg.variant):
        if seed == cfg.seed:
            for key in ("mu_tot", "mu0"):
                if key in log.meta:
                    print(f"{key} = {log.meta[key]}")
        path = _output_path(cfg.output, "run.csv", seed, cfg.repeat)
        log.write_csv(path)
        print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.set)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r} in --variants")
    variants.append(NONPRIVATE)
    setting = _setting(cfg)
    baseline = cfg
    if cfg.gamma == "corollary":  # the private legs' step size and K: set by n, J, epsilon, delta
        leg = _leg(cfg, VARIANTS[0], setting)
        baseline = dataclasses.replace(cfg, gamma=leg.gamma, K=leg.K)
    table = []  # (variant, (loss mean, loss std, accuracy mean, accuracy std))
    for variant in variants:
        legs = _replicates(baseline if variant == NONPRIVATE else cfg, setting, variant)
        summaries = [summarize(log) for _, log in legs]
        losses = [s.final_loss for s in summaries]
        accuracies = [s.final_accuracy for s in summaries]
        table.append((variant, _mean_std(losses) + _mean_std(accuracies)))
    print(f"{'variant':<12} {'epsilon':>8} {'delta':>8} {'final_loss':>18} {'final_accuracy':>18}")
    lines = [
        "variant,epsilon,delta,final_loss_mean,final_loss_std,"
        "final_accuracy_mean,final_accuracy_std"
    ]
    for variant, stats in table:
        private = variant != NONPRIVATE
        eps = f"{cfg.epsilon:g}" if private else "-"
        delta = f"{cfg.delta:g}" if private else "-"
        loss = "{:.4f}+/-{:.4f}".format(*stats[:2])
        acc = "{:.4f}+/-{:.4f}".format(*stats[2:])
        print(f"{variant:<12} {eps:>8} {delta:>8} {loss:>18} {acc:>18}")
        privacy = [_ser_float(cfg.epsilon), _ser_float(cfg.delta)] if private else ["", ""]
        lines.append(",".join([variant, *privacy, *map(repr, stats)]))
    if args.output:
        _write(args.output, "\n".join(lines) + "\n")
    return 0


def _apply_axis(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """A copy of ``cfg`` with one SWEEP_AXES entry set, parsed as its config key."""
    attr, parsed = _parse_field(*_AXIS_KEYS[axis], value)
    return dataclasses.replace(cfg, **{attr: parsed})


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"--axis must be one of {SWEEP_AXES}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    lines = ["axis,value,seed,final_loss,final_accuracy,mean_grad_norm_sq,clip_fraction"]
    setting = None
    for value in values:
        point = _apply_axis(cfg, args.axis, value)
        if setting is None or args.axis in ("n", "graph"):  # the axes that shape the setting
            setting = _setting(point)
        for seed, log in _replicates(point, setting, point.variant):
            s = summarize(log)
            cells = (s.final_loss, s.final_accuracy, s.mean_grad_norm_sq, s.clip_fraction)
            lines.append(",".join([args.axis, value, str(seed), *map(_ser_float, cells)]))
    _write(args.output or cfg.output or "sweep.csv", "\n".join(lines) + "\n")
    return 0


def cmd_accountant(args) -> int:
    cfg = load_config(args.config, args.set)
    setting = _setting(cfg)  # bad [task] and [graph] entries fail as for a run
    if cfg.variant == NONPRIVATE:
        raise ConfigError("the accountant needs a private schedule variant")
    leg = _leg(cfg, cfg.variant, setting)  # the K, step size and schedule a run executes
    sched = leg.schedule
    composed = compose_general(sched.budget, 1.0 / cfg.J)
    print(f"epsilon = {cfg.epsilon:g}, delta = {cfg.delta:g}")
    print(f"mu_tot = {leg.extra_meta['mu_tot']}")
    print(f"variant = {sched.variant}")
    print(f"mu0 = {sched.mu0!r}")
    print(f"sigma_first = {float(sched.sigma[0])!r}")
    print(f"sigma_last = {float(sched.sigma[-1])!r}")
    print(f"composed_mu_tot = {composed!r}")
    if args.table:
        _write(args.table, sched.table_csv())
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the INI config file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config entry (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pushdp", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="execute one configuration")
    _add_common(p_run)
    p_run.add_argument("--output", default="", help="metrics CSV path (default run.csv)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = commands.add_parser("compare", help="run variants plus the non-private baseline")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--variants", default="dyn,dyn-clip,dyn-mu,const", help="comma-separated variants"
    )
    p_cmp.add_argument("--output", default="", help="optional table CSV path")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = commands.add_parser("sweep", help="vary one axis over a list of values")
    _add_common(p_swp)
    p_swp.add_argument("--axis", required=True, help=f"one of {SWEEP_AXES}")
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.add_argument("--output", default="", help="grid CSV path (default sweep.csv)")
    p_swp.set_defaults(func=cmd_sweep)

    p_acc = commands.add_parser("accountant", help="audit a schedule without training")
    _add_common(p_acc)
    p_acc.add_argument("--table", default="", help="write the full schedule table CSV here")
    p_acc.set_defaults(func=cmd_accountant)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():  # each warning as one plain stderr line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            args = parser.parse_args(argv)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # engine or I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
