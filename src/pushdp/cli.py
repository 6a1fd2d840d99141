"""Command-line front end.

Subcommands:

* ``run``        execute one configuration (optionally repeated over seeds)
                 and write one metrics CSV per replicate.
* ``compare``    run several schedule variants plus the non-private baseline
                 on identical seeds and print a mean/std table.
* ``sweep``      vary one axis (rho_c, rho_mu, epsilon, n, graph) over a list
                 of values and write a summary grid CSV.
* ``accountant`` resolve and audit a privacy schedule without training.

Configuration lives in an INI-style file with sections [run], [privacy],
[schedule], [graph], and [task]; ``--set section.key=value`` overrides any
entry from the command line.  Unknown sections or keys are rejected.  Exit
codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .accountant import PrivacySpec, compose_general, mu_tot_from_eps_delta
from .engine import RunConfig, run
from .metrics import MetricsLog, RunSummary, summarize
from .models import Model, Task, synth_dataset
from .schedule import VARIANTS, build_schedule
from .topology import graph_schedule, spectral_report

NONPRIVATE = "nonprivate"
SWEEP_AXES = ("rho_c", "rho_mu", "epsilon", "n", "graph")
GRAPH_KINDS = ("ring", "exponential", "complete", "explicit")


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 1."""


@dataclass
class ExperimentConfig:
    # [run]
    n: int = 8
    K: int = 0  # 0 means derived (only valid with gamma = corollary)
    gamma: float | str = 0.05
    seed: int = 0
    repeat: int = 1
    output: str = ""
    b_window: int = 0  # 0 means the graph period
    # [privacy]
    epsilon: float = 0.0  # 0 means unset
    delta: float = 0.0
    # [schedule]
    variant: str = "const"
    c0: float = 2.0
    rho_c: float = 0.0  # 0 means unset
    rho_mu: float = 0.0
    # [graph]
    graph: str = "exponential"
    matrices: str = ""  # JSON list of dense matrices, explicit schedules only
    # [task]
    model: str = "logistic"
    J: int = 64
    d_in: int = 10
    classes: int = 2
    hidden: int = 16
    data_seed: int = 0
    separation: float = 3.0


def _parse_gamma(s: str):
    if s == "corollary":
        return s
    return float(s)


def _ser_float(v) -> str:
    return repr(float(v))


# (section, key, attribute, parser, serializer)
_FIELDS = [
    ("run", "n", "n", int, str),
    ("run", "K", "K", int, str),
    ("run", "gamma", "gamma", _parse_gamma, lambda v: v if isinstance(v, str) else _ser_float(v)),
    ("run", "seed", "seed", int, str),
    ("run", "repeat", "repeat", int, str),
    ("run", "output", "output", str, str),
    ("run", "b_window", "b_window", int, str),
    ("privacy", "epsilon", "epsilon", float, _ser_float),
    ("privacy", "delta", "delta", float, _ser_float),
    ("schedule", "variant", "variant", str, str),
    ("schedule", "c0", "c0", float, _ser_float),
    ("schedule", "rho_c", "rho_c", float, _ser_float),
    ("schedule", "rho_mu", "rho_mu", float, _ser_float),
    ("graph", "kind", "graph", str, str),
    ("graph", "matrices", "matrices", str, str),
    ("task", "model", "model", str, str),
    ("task", "J", "J", int, str),
    ("task", "d_in", "d_in", int, str),
    ("task", "classes", "classes", int, str),
    ("task", "hidden", "hidden", int, str),
    ("task", "data_seed", "data_seed", int, str),
    ("task", "separation", "separation", float, _ser_float),
]
_BY_SECTION = {}
for _sec, _key, _attr, _parse, _ser in _FIELDS:
    _BY_SECTION.setdefault(_sec, {})[_key] = (_attr, _parse, _ser)


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
        attr, parse, _ = _BY_SECTION[section][key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
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
    for section, key, attr, _, ser in _FIELDS:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {ser(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def _build_task(cfg: ExperimentConfig, n: int) -> Task:
    if cfg.model == "logistic":
        model = Model(kind="logistic", d_in=cfg.d_in, classes=2)
    elif cfg.model == "mlp":
        model = Model(kind="mlp", d_in=cfg.d_in, classes=cfg.classes, hidden=cfg.hidden)
    else:
        raise ConfigError(f"task.model must be logistic or mlp, got {cfg.model!r}")
    dataset = synth_dataset(
        cfg.data_seed, n, cfg.J, d_in=cfg.d_in, classes=model.classes, separation=cfg.separation
    )
    return Task(model=model, dataset=dataset)


def _build_graph(cfg: ExperimentConfig, n: int):
    if cfg.graph not in GRAPH_KINDS:
        raise ConfigError(f"graph.kind must be one of {GRAPH_KINDS}, got {cfg.graph!r}")
    matrices = None
    if cfg.graph == "explicit":
        if not cfg.matrices:
            raise ConfigError("graph.matrices is required for an explicit schedule")
        try:
            matrices = json.loads(cfg.matrices)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"graph.matrices is not valid JSON: {exc}") from exc
    try:
        return graph_schedule(cfg.graph, n, matrices)
    except ValueError as exc:
        raise ConfigError(f"graph.matrices: {exc}") from exc


def _check_privacy(cfg: ExperimentConfig) -> None:
    if not cfg.epsilon > 0:
        raise ConfigError("privacy.epsilon is required for private variants")
    if not 0 < cfg.delta < 1:
        raise ConfigError("privacy.delta must lie in (0, 1)")


def _private_schedule(cfg: ExperimentConfig, variant: str, K: int):
    """Privacy target and schedule of a private variant over K steps."""
    _check_privacy(cfg)
    privacy = PrivacySpec.resolve(cfg.epsilon, cfg.delta, cfg.J, K)
    try:
        rates = dict(rho_c=cfg.rho_c or None, rho_mu=cfg.rho_mu or None)
        return privacy, build_schedule(variant, privacy, clip0=cfg.c0, **rates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(cfg: ExperimentConfig, seed: int, variant: str | None = None) -> RunConfig:
    """Turn a config into a concrete RunConfig for one replicate."""
    variant = variant if variant is not None else cfg.variant
    n = cfg.n
    if n < 1:
        raise ConfigError("run.n must be at least 1")
    task = _build_task(cfg, n)
    graph = _build_graph(cfg, n)
    extra_meta: dict = {"variant": variant}

    if variant == NONPRIVATE:
        if cfg.gamma == "corollary":
            raise ConfigError("run.gamma = corollary needs a privacy budget")
        if cfg.K < 1:
            raise ConfigError("run.K must be positive")
        gamma, K, sched = float(cfg.gamma), cfg.K, None
    else:
        if variant not in VARIANTS:
            raise ConfigError(f"schedule.variant must be one of {VARIANTS + (NONPRIVATE,)}")
        _check_privacy(cfg)
        mu_tot = mu_tot_from_eps_delta(cfg.epsilon, cfg.delta)
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
            gamma = float(cfg.gamma)
            if cfg.K < 1:
                raise ConfigError("run.K must be positive")
            K = cfg.K
        privacy, sched = _private_schedule(cfg, variant, K)
        extra_meta.update(
            epsilon=_ser_float(cfg.epsilon),
            delta=_ser_float(cfg.delta),
            mu_tot=_ser_float(privacy.mu_tot),
            mu0=_ser_float(sched.mu0),
            c0=_ser_float(sched.clip0),
            rho_c=_ser_float(sched.rho_c),
            rho_mu=_ser_float(sched.rho_mu),
        )

    if n > 1:
        window = cfg.b_window if cfg.b_window > 0 else None
        report, constants = spectral_report(graph, task.model.dim, window)
        if not report.is_b_connected:
            raise ConfigError(
                f"graph schedule is not strongly connected over windows of {report.window}"
            )
        extra_meta.update(
            graph_window=report.window,
            graph_diameter=report.diameter,
            contraction_rate=_ser_float(constants.contraction_rate),
        )

    return RunConfig(
        task=task, graph=graph, schedule=sched, gamma=gamma, K=K, seed=seed, extra_meta=extra_meta
    )


def _output_path(base: str, default: str, seed: int, repeat: int) -> str:
    path = base or default
    if repeat <= 1:
        return path
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}_seed{seed}"
    return f"{stem}_seed{seed}.{ext}"


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def _format_mean_std(values: list[float | None]) -> str:
    if values and values[0] is None:
        return "-"
    return "{:.4f}+/-{:.4f}".format(*_mean_std(values))


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.output:
        cfg.output = args.output
    first = True
    for r in range(cfg.repeat):
        seed = cfg.seed + r
        rc = _resolve(cfg, seed)
        if first:
            for key in ("mu_tot", "mu0", "contraction_rate"):
                if key in rc.extra_meta:
                    print(f"{key} = {rc.extra_meta[key]}")
            first = False
        log = run(rc)
        path = _output_path(cfg.output, "run.csv", seed, cfg.repeat)
        log.write_csv(path)
        print(f"wrote {path}")
    return 0


def _replicate_summaries(cfg: ExperimentConfig, variant: str | None = None) -> list[RunSummary]:
    out = []
    for r in range(cfg.repeat):
        rc = _resolve(cfg, cfg.seed + r, variant)
        out.append(summarize(run(rc)))
    return out


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.set)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r} in --variants")
    variants.append(NONPRIVATE)
    table = []
    for variant in variants:
        summaries = _replicate_summaries(cfg, variant)
        private = variant != NONPRIVATE
        table.append(
            {
                "variant": variant,
                "epsilon": _ser_float(cfg.epsilon) if private else "",
                "delta": _ser_float(cfg.delta) if private else "",
                "final_loss": [s.final_loss for s in summaries],
                "final_accuracy": [s.final_accuracy for s in summaries],
            }
        )
    header = f"{'variant':<12} {'epsilon':>8} {'delta':>8} {'final_loss':>18} {'final_accuracy':>18}"
    print(header)
    for row in table:
        eps = f"{cfg.epsilon:g}" if row["epsilon"] else "-"
        delta = f"{cfg.delta:g}" if row["delta"] else "-"
        print(
            f"{row['variant']:<12} {eps:>8} {delta:>8} "
            f"{_format_mean_std(row['final_loss']):>18} "
            f"{_format_mean_std(row['final_accuracy']):>18}"
        )
    if args.output:
        lines = [
            "variant,epsilon,delta,final_loss_mean,final_loss_std,"
            "final_accuracy_mean,final_accuracy_std"
        ]
        for row in table:
            stats = _mean_std(row["final_loss"]) + _mean_std(row["final_accuracy"])
            cells = [row["variant"], row["epsilon"], row["delta"]] + [repr(v) for v in stats]
            lines.append(",".join(cells))
        with open(args.output, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.output}")
    return 0


def _apply_axis(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """A copy of ``cfg`` with one SWEEP_AXES entry (named as its attribute) set."""
    parse = {"n": int, "graph": str}.get(axis, float)
    return dataclasses.replace(cfg, **{axis: parse(value)})


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"--axis must be one of {SWEEP_AXES}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    lines = ["axis,value,seed,final_loss,final_accuracy,mean_grad_norm_sq,clip_fraction"]
    for value in values:
        try:
            point = _apply_axis(cfg, args.axis, value)
        except ValueError as exc:
            raise ConfigError(f"bad sweep value {value!r} for axis {args.axis}") from exc
        for r in range(point.repeat):
            seed = point.seed + r
            summary = summarize(run(_resolve(point, seed)))
            acc = "" if summary.final_accuracy is None else repr(float(summary.final_accuracy))
            lines.append(
                ",".join(
                    [
                        args.axis,
                        value,
                        str(seed),
                        repr(float(summary.final_loss)),
                        acc,
                        repr(float(summary.mean_grad_norm_sq)),
                        repr(float(summary.clip_fraction)),
                    ]
                )
            )
    path = args.output or cfg.output or "sweep.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_accountant(args) -> int:
    cfg = load_config(args.config, args.set)
    if cfg.variant == NONPRIVATE:
        raise ConfigError("the accountant needs a private schedule variant")
    if cfg.K < 1:
        raise ConfigError("run.K must be positive")
    privacy, sched = _private_schedule(cfg, cfg.variant, cfg.K)
    composed = compose_general(sched.as_ledger(privacy.J))
    print(f"epsilon = {privacy.epsilon:g}, delta = {privacy.delta:g}")
    print(f"mu_tot = {privacy.mu_tot!r}")
    print(f"variant = {sched.variant}")
    print(f"mu0 = {sched.mu0!r}")
    print(f"sigma_first = {sched.sigma_at(0)!r}")
    print(f"sigma_last = {sched.sigma_at(privacy.K - 1)!r}")
    print(f"composed_mu_tot = {composed!r}")
    if args.table:
        with open(args.table, "w", newline="\n") as fh:
            fh.write(sched.table_csv())
        print(f"wrote {args.table}")
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
