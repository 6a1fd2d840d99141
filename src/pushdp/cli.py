"""Command-line front end.

Subcommands:

* ``run``        execute one configuration (optionally repeated over seeds)
                 and write one metrics CSV per replicate.
* ``compare``    run several schedule variants plus the non-private baseline
                 on identical seeds and print a mean/std table.
* ``sweep``      vary one config entry, named as its ``ExperimentConfig`` field,
                 over a list of values and write a summary grid CSV.
* ``accountant`` resolve and audit a privacy schedule without training.

Each is declared once, as an entry of ``_COMMANDS`` (handler, help and own flags);
the parser is built from that table once per process, at import, and gives every
subcommand ``--config`` and ``--set``, so ``main`` only parses.

Every subcommand hands configs, one a point, and a callback to ``_grid``, which
first resolves every point in ``_leg`` (every check, K, the step size, the privacy
budget and the schedule), building the dataset and graph and checking connectivity
again only when an entry they read changes.  It then runs the legs seed by seed: in
a grid of more than one point the legs at one seed carry that seed's initial iterates
and sample indices (``engine.SeedDraws``) while (n, K, J, d) holds, one seed's at a
time.  ``run``, ``compare`` and ``sweep`` run each leg; ``accountant`` audits its one.

Configuration lives in an INI-style file with sections [run], [privacy],
[schedule], [graph], and [task]; ``--set section.key=value`` overrides any
entry from the command line.  Each entry is declared once, as a field of
``ExperimentConfig`` whose metadata holds its section and parser.  Unknown
sections ([DEFAULT] too) or keys, non-finite numbers and out-of-range values are
rejected with the key named.  Exit codes: 0 success; 1 configuration error, a
``ConfigError`` or any ``ValueError`` raised while ``_grid`` resolves (each library
names the key it checks); 2 runtime failure, such as an error while a leg runs.
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

from .accountant import PrivacySpec, compose_general
from .engine import RunConfig, SeedDraws, run
from .metrics import RunSummary, csv_text, summarize
from .models import Model, Task, synth_dataset
from .schedule import VARIANTS, build_schedule
from .topology import GRAPH_KINDS, check_strong_connectivity, graph_schedule

NONPRIVATE = "nonprivate"


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
_SETTING_ATTRS = [a for sec, _, a, _ in _FIELDS if sec in ("task", "graph") or a == "n"]


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
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")  # no header spells "\n"
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


def _setting(cfg: ExperimentConfig) -> tuple:
    """(task, graph, diameter of one period's union or None): what the legs of a grid
    share while the ``_SETTING_ATTRS`` entries hold, as none of it reads seed or variant."""
    model = Model(cfg.model, cfg.d_in, cfg.classes, cfg.hidden if cfg.model == "mlp" else 0)
    dataset = synth_dataset(cfg.data_seed, cfg.n, cfg.J, cfg.d_in, cfg.classes, cfg.separation)
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
        rows = [row for m in matrices if isinstance(m, list) for row in m if isinstance(row, list)]
        if bad := [v for row in rows for v in row if type(v) not in (int, float)]:  # bool is no number
            raise ConfigError(f"graph.matrices: entry {json.dumps(bad[0])} is not a number")
    try:
        graph = graph_schedule(cfg.graph, cfg.n, matrices)
    except (TypeError, ValueError) as exc:  # TypeError: a matrix is not a list
        raise ConfigError(f"graph.matrices: {exc}") from exc
    return Task(model=model, dataset=dataset), graph, check_strong_connectivity(graph)


def _privacy(cfg: ExperimentConfig) -> PrivacySpec:
    """The (epsilon, delta) target of a private config, solved for mu_tot over run.K steps."""
    if cfg.epsilon == 0:
        raise ConfigError("privacy.epsilon is required for private variants")
    return PrivacySpec.resolve(cfg.epsilon, cfg.delta, cfg.J, cfg.K)


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
    task, graph, diameter = setting
    extra_meta: dict = {"variant": cfg.variant}
    private = cfg.variant != NONPRIVATE

    if cfg.gamma != "corollary" and cfg.K < 1:
        raise ConfigError("run.K must be positive")
    if private and cfg.variant not in VARIANTS:
        raise ConfigError(f"schedule.variant must be one of {VARIANTS + (NONPRIVATE,)}")
    privacy = _privacy(cfg) if private or cfg.gamma == "corollary" else None
    if cfg.gamma == "corollary":  # a non-private leg too runs at the preset's step size and K
        gamma, K = _corollary(cfg, privacy.mu_tot)
        privacy = dataclasses.replace(privacy, K=K)
        extra_meta["gamma_preset"] = "corollary"
    else:
        gamma, K = float(cfg.gamma), cfg.K
    sched = None
    if private:
        rates = dict(rho_c=cfg.rho_c or None, rho_mu=cfg.rho_mu or None)
        sched = build_schedule(cfg.variant, privacy, clip0=cfg.c0, **rates)
        extra_meta.update(sched.claim())

    if diameter is None:
        raise ConfigError(f"graph schedule is not strongly connected over windows of {graph.period}")
    if diameter:  # 0 for one node
        extra_meta.update(graph_window=graph.period, graph_diameter=diameter)
    return RunConfig(
        task=task, graph=graph, schedule=sched, gamma=gamma, K=K, seed=cfg.seed,
        extra_meta=extra_meta,
    )


def _grid(configs: list, each) -> list:
    """``each(leg)`` at each of the repeat seeds of each config, as one list per config in
    seed order.  Every config is resolved first, so a config error comes before engine time,
    in a setting rebuilt only when an entry it reads differs from the previous config's.  The
    legs then run seed by seed; with more than one config the legs at one seed carry one
    SeedDraws while they keep (n, K, J, d), made inside ``run`` so they count as engine time."""
    legs, setting, read = [], None, None
    try:  # the libraries check the entries they read, naming the keys: a config error
        for cfg in configs:
            if read != (entries := [getattr(cfg, a) for a in _SETTING_ATTRS]):
                setting, read = _setting(cfg), entries
            legs.append(_leg(cfg, setting))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results = [[] for _ in configs]
    for seed in sorted({s for cfg in configs for s in range(cfg.seed, cfg.seed + cfg.repeat)}):
        draws = None  # the last seed's, dropped
        for cfg, leg, out in zip(configs, legs, results):
            if cfg.seed <= seed < cfg.seed + cfg.repeat:
                leg = dataclasses.replace(leg, seed=seed)
                if len(configs) > 1 and SeedDraws.of(leg) != draws:  # one config's legs share no seed
                    draws = SeedDraws.of(leg)
                leg.draws = draws
                out.append(each(leg))
    return results


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def cmd_run(args, cfg: ExperimentConfig) -> int:
    stem, ext = os.path.splitext(args.output or "run.csv")  # the file name's extension only

    def write(leg: RunConfig) -> None:
        log = run(leg)
        if leg.seed == cfg.seed and leg.schedule is not None:
            print("mu_tot = {mu_tot}\nmu0 = {mu0}".format(**leg.schedule.claim()))
        path = f"{stem}{ext}" if cfg.repeat == 1 else f"{stem}_seed{leg.seed}{ext}"
        log.write_csv(path)
        print(f"wrote {path}")

    _grid([cfg], write)
    return 0


def cmd_compare(args, cfg: ExperimentConfig) -> int:
    if cfg.variant not in (*VARIANTS, NONPRIVATE):  # though every point replaces it
        raise ConfigError(f"schedule.variant must be one of {VARIANTS + (NONPRIVATE,)}")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants must list at least one variant")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r} in --variants")
    configs = [dataclasses.replace(cfg, variant=v) for v in [*variants, NONPRIVATE]]
    grid = _grid(configs, lambda leg: summarize(run(dataclasses.replace(leg, every_round=False))))  # row K-1
    table = [("variant", "epsilon", "delta", "final_loss", "final_accuracy")]
    rows = []
    for variant, summaries in zip([*variants, NONPRIVATE], grid):
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


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    keys = {attr: (sec, key) for sec, key, attr, _ in _FIELDS}  # by ExperimentConfig field name
    if args.axis not in keys:
        raise ConfigError(f"--axis must be one of {tuple(keys)}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    configs = [dataclasses.replace(cfg, **dict([_parse_field(*keys[args.axis], v)])) for v in values]
    grid = _grid(configs, lambda leg: (leg.seed, *dataclasses.astuple(summarize(run(leg)))))
    rows = [(args.axis, v, *row) for v, legs in zip(values, grid) for row in legs]
    header = ",".join(["axis", "value", "seed", *(f.name for f in dataclasses.fields(RunSummary))])
    _write(args.output or "sweep.csv", csv_text(header, zip(*rows)))
    return 0


def cmd_accountant(args, cfg: ExperimentConfig) -> int:
    def audit(leg: RunConfig) -> None:  # the leg a run executes, after every check it makes
        if (sched := leg.schedule) is None:
            raise ConfigError("the accountant needs a private schedule variant")
        claim, composed = sched.claim(), compose_general(sched.budget, 1.0 / sched.privacy.J)
        print(f"epsilon = {claim['epsilon']:g}, delta = {claim['delta']:g}")
        print(f"mu_tot = {claim['mu_tot']}\nvariant = {cfg.variant}\nmu0 = {claim['mu0']}")
        print(f"sigma_first = {sched.sigma[0]}\nsigma_last = {sched.sigma[-1]}")
        print(f"composed_mu_tot = {composed}")
        if args.table:
            _write(args.table, sched.table_csv())

    _grid([dataclasses.replace(cfg, repeat=1)], audit)
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
        "--axis": (None, "a config entry by field name, such as epsilon, n or graph"),
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
