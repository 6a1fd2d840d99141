import argparse
import collections
import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import cli_resolving_each_leg
from hypothesis import given, settings
from hypothesis import strategies as st

import pushdp
from pushdp import accountant, cli, engine
from pushdp.accountant import PrivacySpec, mu_tot_from_eps_delta
from pushdp.cli import (
    _FIELDS,
    ConfigError,
    _leg,
    _parse_gamma,
    _setting,
    main,
    parse_config,
)
from pushdp.metrics import COLUMNS, summarize

BASE = """\
[run]
n = 4
K = 15
gamma = 0.05
seed = 0

[privacy]
epsilon = 0.5
delta = 0.0001

[schedule]
variant = const
c0 = 2.0
rho_c = 4.0
rho_mu = 4.0

[graph]
kind = exponential

[task]
J = 20
d_in = 6
"""


def write_config(tmp_path, text=BASE, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def data_lines(path):
    return [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_base_config():
    cfg = parse_config(BASE)
    assert cfg.n == 4 and cfg.K == 15 and cfg.J == 20


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = parse_config(example)
    assert (cfg.n, cfg.K, cfg.repeat, cfg.variant, cfg.J) == (20, 2000, 5, "dyn", 250)


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(BASE + "\n[extra]\nfoo = 1\n")


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nfoo = 1\n", "[DEFAULT]\nepsilon = 5\n" + BASE, BASE + "\n[DEFAULT]\nepsilon = 5\n"],
    ids=["alone", "before-run", "after-run"],
)
def test_a_default_section_is_an_unknown_section(tmp_path, text):
    # configparser would read [DEFAULT] as entries of every section, not as a section
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config(text)
    args = ["run", "--config", write_config(tmp_path, text), "--output", str(tmp_path / "out.csv")]
    assert _exit_code_and_stderr(args) == (1, "config error: unknown section [DEFAULT]\n")
    with pytest.raises(ConfigError, match=r"^unknown key DEFAULT\.n$"):
        parse_config(BASE, ["DEFAULT.n=4"])


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="task.steps"):
        parse_config(BASE + "steps = 3\n")


def test_parse_rejects_unknown_key_in_section():
    bad = BASE.replace("K = 15", "K = 15\nsteps = 3")
    with pytest.raises(ConfigError, match="run.steps"):
        parse_config(bad)


def test_parse_rejects_bad_value():
    bad = BASE.replace("K = 15", "K = soon")
    with pytest.raises(ConfigError, match="run.K"):
        parse_config(bad)


def test_parse_gamma_corollary_keyword():
    cfg = parse_config(BASE.replace("gamma = 0.05", "gamma = corollary"))
    assert cfg.gamma == "corollary"


def test_overrides_apply_after_file():
    cfg = parse_config(BASE, ["run.K=99", "schedule.variant=dyn"])
    assert cfg.K == 99
    assert cfg.variant == "dyn"


def test_override_rejects_malformed_and_unknown():
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_config(BASE, ["K=3"])
    with pytest.raises(ConfigError, match="run.bogus"):
        parse_config(BASE, ["run.bogus=3"])
    with pytest.raises(ConfigError, match="unknown key run.output"):  # --output names files
        parse_config(BASE, ["run.output=x.csv"])
    with pytest.raises(ConfigError, match="^unknown key run.b_window$"):  # the period is the window
        parse_config(BASE, ["run.b_window=1"])


# ---------------------------------------------------------------------------
# resolution


def _run_leg(cfg):
    """The leg ``run`` executes for a config."""
    return _leg(cfg, _setting(cfg))


def test_resolve_corollary_preset_sets_gamma_and_k():
    cfg = parse_config(BASE, ["run.gamma=corollary", "run.K=0", "privacy.epsilon=0.3", "task.J=100"])
    rc = _run_leg(cfg)
    mu_tot = mu_tot_from_eps_delta(0.3, 1e-4)
    assert rc.gamma == pytest.approx(1.0 / (math.sqrt(4) * 100 * mu_tot), rel=1e-12)
    assert rc.K == round(4 * (100 * mu_tot) ** 2)
    assert rc.extra_meta["gamma_preset"] == "corollary"


def test_leg_solves_the_privacy_target_once(monkeypatch):
    # each bisection of (epsilon, delta) -> mu_tot evaluates the transfer once at
    # the low end of its bracket
    lows, transfer = [], accountant.delta_from_mu_eps

    def counted(mu, eps):
        lows.append(mu == accountant.MU_BRACKET[0])
        return transfer(mu, eps)

    monkeypatch.setattr(accountant, "delta_from_mu_eps", counted)
    for preset in ([], ["run.gamma=corollary", "run.K=0"]):
        lows.clear()
        leg = _run_leg(parse_config(BASE, preset))
        assert sum(lows) == 1
        assert leg.schedule.privacy.K == leg.K


def test_resolve_corollary_preset_needs_enough_budget():
    cfg = parse_config(BASE, ["run.gamma=corollary", "run.n=16", "task.J=10", "privacy.epsilon=0.3"])
    with pytest.raises(ConfigError, match="sqrt"):
        _run_leg(cfg)


def test_resolve_requires_epsilon_for_private_variants():
    cfg = parse_config(BASE, ["privacy.epsilon=0.0"])
    with pytest.raises(ConfigError, match="epsilon"):
        _run_leg(cfg)


def test_resolve_nonprivate_ignores_privacy_section():
    cfg = parse_config(BASE, ["schedule.variant=nonprivate", "privacy.epsilon=0.0"])
    rc = _run_leg(cfg)
    assert rc.schedule is None


def test_resolve_records_graph_diagnostics():
    cfg = parse_config(BASE)
    rc = _run_leg(cfg)
    assert rc.extra_meta["graph_window"] == 2  # exponential n=4 has period 2
    assert rc.extra_meta["graph_diameter"] == 2
    assert "contraction_rate" not in rc.extra_meta


@pytest.mark.parametrize(
    "overrides",
    [["graph.kind=ring"], ["graph.kind=exponential"], ["graph.kind=complete"],
     ["graph.kind=explicit", "graph.matrices=[[[1.0]]]"]],
    ids=["ring", "exponential", "complete", "explicit"],
)
def test_a_single_node_leg_records_no_graph_diagnostics(overrides):
    rc = _run_leg(parse_config(BASE, ["run.n=1", *overrides]))
    assert "graph_window" not in rc.extra_meta and "graph_diameter" not in rc.extra_meta


def test_resolve_explicit_graph_from_json():
    overrides = [
        "graph.kind=explicit",
        'graph.matrices=[[[0.5, 0.5], [0.5, 0.5]]]',
        "run.n=2",
    ]
    cfg = parse_config(BASE, overrides)
    rc = _run_leg(cfg)
    assert rc.graph.kind == "explicit"
    assert rc.graph.period == 1


def test_resolve_rejects_invalid_explicit_matrix():
    overrides = [
        "graph.kind=explicit",
        'graph.matrices=[[[0.9, 0.5], [0.0, 0.5]]]',  # column 0 sums to 0.9
        "run.n=2",
    ]
    cfg = parse_config(BASE, overrides)
    with pytest.raises(ConfigError, match="matrices"):
        _run_leg(cfg)


def test_resolve_rejects_unknown_variant():
    cfg = parse_config(BASE, ["schedule.variant=banana"])
    with pytest.raises(ConfigError, match="variant"):
        _run_leg(cfg)


# ---------------------------------------------------------------------------
# subcommands end to end


def test_run_writes_metrics_csv(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["run", "--config", config, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mu_tot" in stdout
    lines = data_lines(out)
    assert lines[0].startswith("k,loss,")
    assert len(lines) == 1 + 15


def test_run_respects_set_overrides(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "metrics.csv"
    code = main(["run", "--config", config, "--set", "run.K=5", "--output", str(out)])
    assert code == 0
    assert len(data_lines(out)) == 1 + 5


@pytest.mark.parametrize("variant, drew", [("nonprivate", False), ("const", True)])
def test_run_metadata_records_whether_the_run_drew_noise(tmp_path, variant, drew):
    out = tmp_path / "metrics.csv"
    args = ["run", "--config", write_config(tmp_path), "--set", f"schedule.variant={variant}"]
    assert main([*args, "--output", str(out)]) == 0
    assert f"# noise_enabled={drew}" in out.read_text().splitlines()


def test_run_repeat_writes_one_file_per_seed(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "metrics.csv"
    code = main(
        ["run", "--config", config, "--set", "run.repeat=2", "--output", str(out)]
    )
    assert code == 0
    a, b = tmp_path / "metrics_seed0.csv", tmp_path / "metrics_seed1.csv"
    assert a.exists() and b.exists()
    assert a.read_text() != b.read_text()


@pytest.mark.parametrize("name", ["run", "metrics.csv"])
def test_run_repeat_splits_the_extension_of_the_file_name_only(tmp_path, name):
    results = tmp_path / "results.v2"
    results.mkdir()
    args = ["run", "--config", write_config(tmp_path), "--set", "run.repeat=2"]
    assert main([*args, "--output", str(results / name)]) == 0
    stem, dot, ext = name.partition(".")
    written = sorted(p.name for p in results.iterdir())
    assert written == [f"{stem}_seed{s}{dot}{ext}" for s in (0, 1)]


def test_run_is_byte_reproducible(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", config, "--output", str(out1)]) == 0
    assert main(["run", "--config", config, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_config_error_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, BASE.replace("epsilon = 0.5", "epsilon = 0.0"))
    assert main(["run", "--config", config]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_run_rejects_bad_clip_bound(tmp_path, capsys, value):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "out.csv"
    args = ["run", "--config", config, "--set", f"schedule.c0={value}", "--output", str(out)]
    assert main(args) == 1
    assert "schedule.c0" in capsys.readouterr().err
    assert not out.exists()


FLOAT_KEYS = [f"{sec}.{key}" for sec, key, _, parse in _FIELDS if parse in (float, _parse_gamma)]
# (overrides, key the error must name); BASE has d_in = 6.
MODEL_OUT_OF_RANGE = [
    (["task.d_in=1"], "task.d_in"),
    (["task.model=mlp", "task.classes=1"], "task.classes"),
    (["task.model=mlp", "task.classes=7"], "task.d_in"),
    (["task.classes=3"], "task.classes"),  # the base config's logistic model is binary
]
# explicit matrices that are valid JSON but not a list of matrices, and matrices
# given to a generated graph kind
BAD_MATRICES = [
    (["graph.kind=explicit", f"graph.matrices={value}"], "graph.matrices")
    for value in ("5", "true", '{"a": 1}', '"x"', '[{"a": 1}]')
] + [
    (["graph.kind=ring", "run.n=2", "graph.matrices=5"], "graph.matrices"),
    (["graph.matrices=[[[0.5, 0.5], [0.5, 0.5]]]"], "graph.matrices"),
    (["graph.kind=explicit", "run.n=2", "graph.matrices=[[[NaN, 0.5], [0.5, 0.5]]]"], "graph.matrices"),
    (["graph.kind=explicit"], "graph.matrices"),  # no matrices
    (["graph.kind=explicit", "graph.matrices=[]"], "graph.matrices"),  # an empty list
    (["graph.kind=explicit", "graph.matrices=[["], "graph.matrices"),  # not JSON
] + [  # entries that are not JSON numbers, which numpy would read as weights or as nan
    (
        ["graph.kind=explicit", f"run.n={n}", f"graph.matrices={value}"],
        f"graph.matrices: entry {entry} is not a number",
    )
    for n, value, entry in [
        (1, "[[[true]]]", "true"),
        (1, '[[["1.0"]]]', '"1.0"'),
        (1, "[[[null]]]", "null"),
        (2, "[[[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, true]]]", "true"),  # numpy reads [1, true] as ints
    ]
]
OUT_OF_RANGE = MODEL_OUT_OF_RANGE + BAD_MATRICES + [
    (["run.gamma=-1"], "run.gamma"),
    (["run.n=0"], "run.n"),
    (["run.repeat=0"], "run.repeat"),
    (["task.J=0"], "task.J"),
    (["task.d_in=0"], "task.d_in"),
    (["task.model=mlp", "task.hidden=0"], "task.hidden"),
    (["privacy.epsilon=1e6"], "privacy.epsilon"),
    (["run.seed=-1"], "run.seed"),
    (["task.data_seed=-1"], "task.data_seed"),
    (["run.b_window=-3"], "run.b_window"),  # an unknown key: every check is over the period
    (["task.model=bogus"], "task.model"),
    (["graph.kind=bogus"], "graph.kind"),
    (["run.K=0"], "run.K"),  # with a numeric step size
    (["privacy.delta=0"], "privacy.delta"),
    (["privacy.delta=1.5"], "privacy.delta"),
    # a dynamic axis whose rate is not above 1, or unset (0)
    (["schedule.rho_c=0.5"], "schedule.rho_c"),
    (["schedule.variant=dyn-mu", "schedule.rho_mu=1"], "schedule.rho_mu"),
    (["schedule.variant=dyn-clip", "schedule.rho_c=0"], "schedule.rho_c"),
]
NON_FINITE_CASES = [([f"{key}={v}"], key) for key in FLOAT_KEYS for v in ("nan", "inf", "-inf")]


def _exit_code_and_stderr(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


def _command_args(command, config, overrides, out):
    extra = {
        "run": ["--output", str(out)],
        "compare": ["--variants", "dyn", "--output", str(out)],
        "sweep": ["--axis", "n", "--values", "4", "--output", str(out)],
        "accountant": ["--table", str(out)],
    }[command]
    sets = [arg for item in overrides for arg in ("--set", item)]
    return [command, "--config", config, *sets, *extra]


@pytest.mark.parametrize(
    "overrides,key",
    NON_FINITE_CASES + OUT_OF_RANGE,
    ids=lambda v: "+".join(v) if isinstance(v, list) else None,
)
def test_run_rejects_bad_value_naming_key(tmp_path, overrides, key):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "out.csv"
    code, err = _exit_code_and_stderr(_command_args("run", config, overrides, out))
    assert code == 1, err
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides,key",
    NON_FINITE_CASES + OUT_OF_RANGE,
    ids=lambda v: "+".join(v) if isinstance(v, list) else None,
)
def test_accountant_prints_what_run_prints_for_a_bad_value(tmp_path, overrides, key):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "out.csv"
    code, err = _exit_code_and_stderr(_command_args("run", config, overrides, out))
    assert code == 1 and key in err, err
    assert _exit_code_and_stderr(_command_args("accountant", config, overrides, out)) == (code, err)
    assert not out.exists()


@pytest.fixture(scope="module")
def dyn_config(tmp_path_factory):
    return write_config(
        tmp_path_factory.mktemp("fuzz"), BASE.replace("variant = const", "variant = dyn")
    )


NON_FINITE_SPELLINGS = [
    "nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity", "-Infinity", "1e999", "-1e999",
]


@settings(database=None, derandomize=True, deadline=None, max_examples=80)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(FLOAT_KEYS), st.sampled_from(NON_FINITE_SPELLINGS)).map(
            lambda kv: ([f"{kv[0]}={kv[1]}"], kv[0])
        ),
        st.sampled_from(OUT_OF_RANGE),
    ),
    command=st.sampled_from(["run", "compare", "sweep", "accountant"]),
)
def test_config_fuzz_exits_1_naming_key(dyn_config, tmp_path_factory, case, command):
    overrides, key = case
    out = tmp_path_factory.getbasetemp() / "fuzz-out.csv"
    code, err = _exit_code_and_stderr(_command_args(command, dyn_config, overrides, out))
    assert code == 1, (command, overrides, err)
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "accountant"])
@pytest.mark.parametrize(
    "overrides,what",
    [
        (["schedule.c0=1e308"], "noise levels"),  # sigma_0 overflows
        (["schedule.c0=1e-300", "schedule.rho_c=1e300"], "clip bounds"),  # C_k underflows to 0
    ],
    ids=["sigma-overflow", "clip-underflow"],
)
def test_a_schedule_without_finite_positive_noise_exits_1_naming_c0(tmp_path, command, overrides, what):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "out.csv"
    code, err = _exit_code_and_stderr(_command_args(command, config, overrides, out))
    message = f"config error: schedule.c0 and its rates: the schedule's {what} must be finite and positive\n"
    assert (code, err) == (1, message)
    assert not out.exists()


@pytest.mark.parametrize("epsilon,delta", [(-1.0, 1e-4), (0.5, 0.0), (0.5, 1.5), (1e-12, 1e-300)])
def test_the_cli_prints_the_accountants_privacy_error(tmp_path, epsilon, delta):
    # the accountant owns the (epsilon, delta) checks; the CLI adds only its prefix
    with pytest.raises(ValueError) as raised:
        PrivacySpec.resolve(epsilon, delta, 20, 15)
    config = write_config(tmp_path)
    args = ["run", "--config", config, "--set", f"privacy.epsilon={epsilon!r}", "--set", f"privacy.delta={delta!r}"]
    assert _exit_code_and_stderr(args) == (1, f"config error: {raised.value}\n")


# an explicit two-node schedule with no edges between the nodes
DISCONNECTED = ["graph.kind=explicit", "run.n=2", "graph.matrices=[[[1.0, 0.0], [0.0, 1.0]]]"]


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "accountant"])
def test_disconnected_schedule_fails_after_each_legs_own_checks(tmp_path, command):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "out.csv"
    args = _command_args(command, config, DISCONNECTED, out)
    if command == "sweep":  # over an axis that keeps n = 2
        args[args.index("n")] = "rho_c"
    disconnected = "config error: graph schedule is not strongly connected over windows of 1\n"
    assert _exit_code_and_stderr(args) == (1, disconnected)
    # a leg's own fault is named first, as when every leg built its setting itself
    no_epsilon = "config error: privacy.epsilon is required for private variants\n"
    assert _exit_code_and_stderr([*args, "--set", "privacy.epsilon=0"]) == (1, no_epsilon)
    negative = "config error: privacy.epsilon must be positive, got -1.0\n"
    assert _exit_code_and_stderr([*args, "--set", "privacy.epsilon=-1"]) == (1, negative)
    assert not out.exists()


@pytest.mark.parametrize(
    "axis,value,key",
    [
        ("epsilon", "inf", "privacy.epsilon"),
        ("rho_c", "nan", "schedule.rho_c"),
        ("n", "0", "run.n"),
        ("epsilon", "0.5,inf", "privacy.epsilon"),  # every value is parsed before a leg runs
        ("epsilon", "0.5,-1", "privacy.epsilon must be positive, got -1.0"),
        ("epsilon", " , ", "--values"),  # no value at all
    ],
)
def test_sweep_value_errors_name_the_key(tmp_path, axis, value, key):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "grid.csv"
    args = ["sweep", "--config", config, "--axis", axis, "--values", value, "--output", str(out)]
    code, err = _exit_code_and_stderr(args)
    assert code == 1 and key in err
    assert not out.exists()


def test_config_without_a_section_header_exits_1(tmp_path):
    config = write_config(tmp_path, "n = 4\n" + BASE)
    out = tmp_path / "out.csv"
    code, err = _exit_code_and_stderr(["run", "--config", config, "--output", str(out)])
    assert code == 1 and err.startswith("config error: malformed config: File contains no section")
    assert "'n = 4\\n'" in err  # the entry it could not place
    assert not out.exists()


def test_run_io_failure_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["run", "--config", config, "--output", str(missing_dir)]) == 2
    assert "error" in capsys.readouterr().err


def _cli_process(args, sets):
    """``python -m pushdp.cli`` in a fresh process, with ``--set`` for each override."""
    args = [*args, *(arg for pair in sets for arg in ("--set", pair))]
    src = str(Path(pushdp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pushdp.cli", *args], capture_output=True, text=True, env=env)


def test_diverging_run_prints_one_error_line_and_exits_2(tmp_path):
    # numpy's overflow warnings would add lines naming install paths and source lines
    sets = ["run.n=2", "run.K=50", "run.gamma=1e308", "task.J=10", "schedule.variant=nonprivate"]
    args = ["run", "--config", write_config(tmp_path), "--output", str(tmp_path / "out.csv")]
    out = _cli_process(args, sets)
    assert out.returncode == 2
    assert re.fullmatch(r"error: non-finite parameter after round \d+; try a smaller step size\n", out.stderr)


def test_accountant_prints_a_warning_as_one_plain_line(tmp_path):
    # at J = 64, K = 20 the late dyn step budgets pass mu_k^2 = 1; the warning must
    # not name an install path or a source line
    sets = ["schedule.variant=dyn", "privacy.epsilon=0.3", "task.J=64", "run.K=20"]
    out = _cli_process(["accountant", "--config", write_config(tmp_path)], sets)
    assert out.returncode == 0
    assert out.stderr == (
        "warning: some per-step budgets exceed mu_k^2 = 1; "
        "the CLT composition may under-report delta in this regime\n"
    )


REQUIRED = "the following arguments are required: "
USAGE_ERRORS = {
    "run-without-config": (["run"], REQUIRED + "--config"),
    "compare-without-config": (["compare"], REQUIRED + "--config"),
    "sweep-without-config": (["sweep", "--axis", "n", "--values", "4"], REQUIRED + "--config"),
    "accountant-without-config": (["accountant"], REQUIRED + "--config"),
    "sweep-without-axis-and-values": (["sweep", "--config", "exp.ini"], REQUIRED + "--axis, --values"),
    "no-subcommand": ([], REQUIRED + "command"),
    "unknown-subcommand": (
        ["bogus"],
        "argument command: invalid choice: 'bogus' (choose from 'run', 'compare', 'sweep', 'accountant')",
    ),
    "unknown-flag": (["run", "--config", "exp.ini", "--bogus"], "unrecognized arguments: --bogus"),
}


def test_bad_cli_usage_exits_1():
    for case, (args, message) in USAGE_ERRORS.items():
        assert _exit_code_and_stderr(args) == (1, f"config error: {message}\n"), case


HELP_FLAGS = {
    "run": ["--output"],
    "compare": ["--variants", "--output"],
    "sweep": ["--axis", "--values", "--output"],
    "accountant": ["--table"],
}


@pytest.mark.parametrize("command,flags", HELP_FLAGS.items(), ids=HELP_FLAGS.keys())
def test_subcommand_help_exits_0_listing_its_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: pushdp {command} [-h] --config CONFIG [--set SECTION.KEY=VALUE]")
    listed = re.findall(r"^  (--[a-z]+)", out, re.MULTILINE)
    assert listed == ["--config", "--set", *flags]  # after "  -h, --help"


def test_main_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    table = tmp_path / "schedule.csv"
    args = ["accountant", "--config", write_config(tmp_path), "--table", str(table)]
    assert _exit_code_and_stderr([*args, "--set", "run.K=5"])[0] == 0
    assert _exit_code_and_stderr(args)[0] == 0
    assert built == []
    assert len(table.read_text().splitlines()) == 1 + 15  # the first call's --set is gone


def test_compare_prints_variants_and_baseline(tmp_path, capsys):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 10"))
    out = tmp_path / "table.csv"
    code = main(
        [
            "compare",
            "--config", config,
            "--set", "run.repeat=2",
            "--variants", "dyn,const",
            "--output", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("dyn", "const", "nonprivate"):
        assert name in stdout
    assert "+/-" in stdout
    rows = out.read_text().splitlines()
    assert rows[0].startswith("variant,epsilon,delta,final_loss_mean")
    assert len(rows) == 1 + 3
    assert rows[3].startswith("nonprivate,,")


def test_compare_runs_the_corollary_preset_with_the_private_step_size_and_k(tmp_path, capsys):
    config, out = write_config(tmp_path), tmp_path / "table.csv"
    preset = ["run.gamma=corollary", "run.K=0", "privacy.epsilon=0.3"]
    leg = _run_leg(parse_config(BASE, preset))
    rows = []
    for overrides in (preset, preset + [f"run.gamma={leg.gamma!r}", f"run.K={leg.K}"]):
        assert main(_command_args("compare", config, overrides, out)) == 0
        rows.append(out.read_text().splitlines())
    capsys.readouterr()
    # the baseline runs at the derived step size and K, as the private legs do
    assert rows[0][2].startswith("nonprivate,,") and rows[0][2] == rows[1][2]
    # a nonprivate leg of its own runs at them too, and needs the budget they are solved from
    nonprivate = preset + ["schedule.variant=nonprivate"]
    for command in ("run", "sweep"):
        args = _command_args(command, config, nonprivate, out)
        assert _exit_code_and_stderr(args) == (0, "")
        rows.append(out.read_text().splitlines())
        no_budget = [*args, "--set", "privacy.epsilon=0"]
        no_epsilon = "config error: privacy.epsilon is required for private variants\n"
        assert _exit_code_and_stderr(no_budget) == (1, no_epsilon)
    meta = {line for line in rows[2] if line.startswith("# ")}
    assert {f"# gamma={leg.gamma!r}", f"# K={leg.K}", "# gamma_preset=corollary"} <= meta
    assert not any(line.startswith("# epsilon=") for line in meta)
    final_loss = rows[3][1].split(",")[3]  # axis,value,seed,final_loss,...
    assert rows[0][2].split(",")[3] == final_loss  # the baseline's mean over its one seed


def test_compare_under_the_corollary_preset_builds_each_schedule_once(tmp_path, monkeypatch):
    # the baseline's step size and K come from the privacy solve alone, not from a leg
    built, build = [], cli.build_schedule

    def counted(variant, *args, **kwargs):
        built.append(variant)
        return build(variant, *args, **kwargs)

    monkeypatch.setattr(cli, "build_schedule", counted)
    preset = ["run.gamma=corollary", "run.K=0", "privacy.epsilon=0.3"]
    args = _command_args("compare", write_config(tmp_path), preset, tmp_path / "table.csv")
    args[args.index("--variants") + 1] = "dyn,const"
    assert _exit_code_and_stderr(args) == (0, "")
    assert built == ["dyn", "const"]


def test_compare_under_the_corollary_preset_solves_the_baseline_and_each_private_point(
    tmp_path, monkeypatch
):
    # one solve of (epsilon, delta, J, K) for the baseline's step size and one per private
    # point, shared by its seeds
    solves, resolve = [], accountant.PrivacySpec.resolve

    def counted(*target):
        solves.append(target)
        return resolve(*target)

    monkeypatch.setattr(accountant.PrivacySpec, "resolve", counted)
    preset = ["run.gamma=corollary", "run.K=0", "privacy.epsilon=0.3", "run.repeat=2"]
    args = _command_args("compare", write_config(tmp_path), preset, tmp_path / "table.csv")
    args[args.index("--variants") + 1] = "dyn,const"
    assert _exit_code_and_stderr(args) == (0, "")
    assert solves == [(0.3, 1e-4, 20, 0)] * 3


def test_compare_rejects_unknown_variant(tmp_path):
    config = write_config(tmp_path)
    assert main(["compare", "--config", config, "--variants", "dyn,nope"]) == 1


@pytest.mark.parametrize("variants", ["", " , "])
def test_compare_rejects_an_empty_variant_list(tmp_path, variants):
    out = tmp_path / "table.csv"
    args = ["compare", "--config", write_config(tmp_path), "--variants", variants, "--output", str(out)]
    assert _exit_code_and_stderr(args) == (1, "config error: --variants must list at least one variant\n")
    assert not out.exists()


def test_compare_corollary_baseline_resolves_only_the_listed_variants(tmp_path, capsys):
    # const reads no rate, so with none set only dyn (never listed) would fail; the preset's
    # step size and K depend on n, J, epsilon and delta alone, so the baseline is unchanged
    config, out = write_config(tmp_path), tmp_path / "table.csv"
    preset = ["run.gamma=corollary", "run.K=0", "privacy.epsilon=0.3"]
    no_rates = preset + ["schedule.rho_c=0", "schedule.rho_mu=0"]
    baselines = []
    for overrides, variants in ((preset, "dyn,const"), (no_rates, "const")):
        args = _command_args("compare", config, overrides, out)
        args[args.index("--variants") + 1] = variants
        assert main(args) == 0
        baselines.append(out.read_text().splitlines()[-1])
    assert baselines[0].startswith("nonprivate,,") and baselines[0] == baselines[1]
    run_const = _command_args("run", config, no_rates + ["schedule.variant=const"], tmp_path / "m.csv")
    assert main(run_const) == 0
    capsys.readouterr()


def test_sweep_writes_grid(tmp_path):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 8"))
    out = tmp_path / "grid.csv"
    code = main(
        [
            "sweep",
            "--config", config,
            "--axis", "epsilon",
            "--values", "0.5, 1.0",
            "--output", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "axis,value,seed,final_loss,final_accuracy,mean_grad_norm_sq,clip_fraction"
    assert len(rows) == 1 + 2
    assert rows[1].startswith("epsilon,0.5,0,")


def test_sweep_over_graph_kinds(tmp_path):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 8"))
    out = tmp_path / "grid.csv"
    code = main(
        [
            "sweep",
            "--config", config,
            "--axis", "graph",
            "--values", "ring,complete",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_sweep_rejects_unknown_axis(tmp_path):
    config = write_config(tmp_path)
    for axis in ("flux", "kind"):  # graph.kind is swept by its field name, graph
        code, err = _exit_code_and_stderr(["sweep", "--config", config, "--axis", axis, "--values", "1"])
        assert code == 1 and err.startswith("config error: --axis must be one of ("), err
        assert all(repr(f.name) in err for f in dataclasses.fields(cli.ExperimentConfig))


def test_sweep_rejects_bad_value(tmp_path):
    config = write_config(tmp_path)
    assert main(["sweep", "--config", config, "--axis", "n", "--values", "four"]) == 1


@pytest.mark.filterwarnings("ignore::pushdp.accountant.RegimeWarning")
def test_accountant_reports_consistent_budget(tmp_path, capsys):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    table, metrics = tmp_path / "table.csv", tmp_path / "run.csv"
    for overrides, K in ((AUDITED["dyn"], "15"), (AUDITED["corollary"], None)):  # None: K derived
        sets = [arg for item in overrides for arg in ("--set", item)]
        code = main(["accountant", "--config", config, *sets, "--table", str(table)])
        assert code == 0
        stdout = capsys.readouterr().out
        values = {}
        for line in stdout.splitlines():
            if " = " in line:
                key, _, val = line.partition(" = ")
                values[key.strip()] = val.strip()
        mu_tot = float(values["mu_tot"])
        composed = float(values["composed_mu_tot"])
        assert composed == pytest.approx(mu_tot, rel=1e-8)
        # one record feeds both outputs: run prints and writes what the accountant prints
        assert main(["run", "--config", config, *sets, "--output", str(metrics)]) == 0
        assert f"mu_tot = {values['mu_tot']}\nmu0 = {values['mu0']}\n" in capsys.readouterr().out
        meta = dict(ln[2:].split("=", 1) for ln in metrics.read_text().splitlines() if ln.startswith("# "))
        epsilon, _, delta = values["epsilon"].partition(", delta = ")
        printed = dict(epsilon=epsilon, delta=delta, mu_tot=values["mu_tot"], mu0=values["mu0"])
        assert {key: meta[key] for key in printed} == printed
        assert meta["K"] == (K or meta["K"])
        assert table.read_text().splitlines()[0] == "k,C_k,mu_k,sigma_k"
        assert len(table.read_text().splitlines()) == 1 + int(meta["K"])


def test_accountant_rejects_nonprivate(tmp_path):
    config = write_config(
        tmp_path, BASE.replace("variant = const", "variant = nonprivate")
    )
    assert main(["accountant", "--config", config]) == 1


@pytest.mark.filterwarnings("ignore::pushdp.accountant.RegimeWarning")
def test_accountant_resolves_through_the_grid_alone(tmp_path, monkeypatch, capsys):
    calls, grids, depth = [], [], []

    def recording(name, function):
        def recorded(*args):
            calls.append(name if depth or name == "_grid" else f"{name} outside _grid")
            grids.extend([args[0]] if name == "_grid" else [])
            depth.append(name)
            try:
                return function(*args)
            finally:
                depth.pop()

        return recorded

    for name in ("_grid", "_setting", "_leg"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    assert main(["accountant", "--config", config, "--set", "run.repeat=3"]) == 0
    assert calls == ["_grid", "_setting", "_leg"]
    assert grids == [[parse_config(BASE, ["schedule.variant=dyn", "run.repeat=1"])]]
    assert len(capsys.readouterr().out.splitlines()) == 7  # one audit, not one a seed


@pytest.mark.parametrize(
    "overrides,error",
    [
        ([], "the accountant needs a private schedule variant"),
        (["run.K=0"], "run.K must be positive"),
        (DISCONNECTED, "graph schedule is not strongly connected over windows of 1"),
        (["run.gamma=corollary", "privacy.epsilon=0"], "privacy.epsilon is required for private variants"),
    ],
    ids=["nonprivate", "K-0", "disconnected", "corollary-without-epsilon"],
)
def test_accountant_refuses_a_leg_without_a_schedule_after_every_check_run_makes(
    tmp_path, overrides, error
):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = nonprivate"))
    out = tmp_path / "out.csv"
    got = _exit_code_and_stderr(_command_args("accountant", config, overrides, out))
    assert got == (1, f"config error: {error}\n")
    if overrides:  # a leg run would refuse too, with the same line
        assert _exit_code_and_stderr(_command_args("run", config, overrides, out)) == got
    assert not out.exists()


# a plain dyn config, and the corollary preset with K derived and with run.K also set
AUDITED = {
    "dyn": [],
    "corollary": ["run.gamma=corollary", "run.K=0"],
    "corollary-with-K": ["run.gamma=corollary", "run.K=15"],
}


@pytest.mark.filterwarnings("ignore::pushdp.accountant.RegimeWarning")
@pytest.mark.parametrize("overrides", AUDITED.values(), ids=AUDITED.keys())
def test_accountant_audits_the_schedule_run_executes(tmp_path, capsys, overrides):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    sets = [arg for item in overrides for arg in ("--set", item)]
    table, metrics = tmp_path / "table.csv", tmp_path / "run.csv"
    assert main(["accountant", "--config", config, *sets, "--table", str(table)]) == 0
    audit = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines() if " = " in ln)
    assert main(["run", "--config", config, *sets, "--output", str(metrics)]) == 0
    lines = metrics.read_text().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    # the run's k, C_k, mu_k, sigma_k columns, header included, are the audit table
    columns = [[c[0], *c[5:8]] for c in (ln.split(",") for ln in data_lines(metrics))]
    assert columns == [ln.split(",") for ln in table.read_text().splitlines()]
    assert (audit["mu_tot"], audit["mu0"]) == (meta["mu_tot"], meta["mu0"])


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "accountant"])
def test_unknown_variant_names_its_key(tmp_path, command):
    out = tmp_path / "out.csv"
    args = _command_args(command, write_config(tmp_path), ["schedule.variant=bogus"], out)
    code, err = _exit_code_and_stderr(args)
    assert code == 1 and err.startswith("config error: schedule.variant must be one of ("), err
    assert not out.exists()


# ---------------------------------------------------------------------------
# written files: every value reads back exactly


@pytest.fixture
def logs(monkeypatch):
    """Every metrics log the CLI's runs return, in order."""
    made, run = [], cli.run

    def recorded(config, **kwargs):
        made.append(run(config, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "run", recorded)
    return made


def _read_back(path):
    """(metadata, header, rows) of a written CSV, as text cells."""
    text = path.read_text()
    assert "np." not in text
    lines = text.splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    header, *rows = (ln.split(",") for ln in lines if not ln.startswith("#"))
    return meta, header, rows


def _by_point(logs, key):
    """The logs of each point of a grid, told apart by ``key(meta)``, each list in seed
    order: the grid runs its points seed by seed."""
    points = {}
    for log in sorted(logs, key=lambda log: log.meta["seed"]):
        points.setdefault(key(log.meta), []).append(log)
    return points


def _cells_equal(cells, values) -> bool:
    """Each cell reads back through ``float`` to its float value bit for bit (nan to nan)
    and is any other value's ``str``."""
    values = list(values)
    assert len(cells) == len(values)
    return all(
        float(c).hex() == float(v).hex() if isinstance(v, float) else c == str(v)
        for c, v in zip(cells, values)
    )


@pytest.mark.filterwarnings("ignore::pushdp.accountant.RegimeWarning")
def test_every_written_csv_reads_back_to_the_values_it_records(tmp_path, logs):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    out = tmp_path / "out.csv"
    for variant in ("dyn", "nonprivate"):  # the non-private C_k and mu_k are inf and nan
        logs.clear()
        sets = [f"schedule.variant={variant}", "run.repeat=2"]
        assert main(_command_args("run", config, sets, out)) == 0
        assert len(logs) == 2
        for seed, log in enumerate(logs):
            meta, header, rows = _read_back(tmp_path / f"out_seed{seed}.csv")
            assert list(meta) == list(log.meta) and _cells_equal(meta.values(), log.meta.values())
            assert header == list(COLUMNS) and len(rows) == 15
            assert all(_cells_equal(row, log.rows[k].tolist()) for k, row in enumerate(rows))

    logs.clear()
    assert main(_command_args("compare", config, ["run.repeat=2"], out)) == 0
    _, header, rows = _read_back(out)
    assert header[:3] == ["variant", "epsilon", "delta"] and len(logs) == 4
    pairs = _by_point(logs, lambda meta: meta["variant"])
    assert list(pairs) == ["dyn", "nonprivate"] and all(len(pair) == 2 for pair in pairs.values())
    for row, pair, privacy in zip(rows, pairs.values(), ([0.5, 1e-4], ["", ""]), strict=True):
        stats = []
        for name in ("final_loss", "final_accuracy"):
            values = np.array([getattr(summarize(log), name) for log in pair])
            stats += [float(values.mean()), float(values.std(ddof=1))]
        assert _cells_equal(row, [pair[0].meta["variant"], *privacy, *stats])

    logs.clear()
    sweep = ["sweep", "--config", config, "--set", "run.repeat=2", "--axis", "epsilon"]
    assert main([*sweep, "--values", "0.5,1", "--output", str(out)]) == 0
    _, header, rows = _read_back(out)
    assert header == ["axis", "value", "seed", *dataclasses.asdict(summarize(logs[0]))]
    points = [("0.5", 0), ("0.5", 1), ("1", 0), ("1", 1)]
    by_epsilon = _by_point(logs, lambda meta: meta["epsilon"])
    assert [log.meta["seed"] for pair in by_epsilon.values() for log in pair] == [0, 1, 0, 1]
    in_rows = [log for epsilon in (0.5, 1.0) for log in by_epsilon[epsilon]]
    for row, (value, seed), log in zip(rows, points, in_rows, strict=True):
        assert _cells_equal(row, ["epsilon", value, seed, *dataclasses.astuple(summarize(log))])

    assert main(["accountant", "--config", config, "--table", str(out)]) == 0
    sched = _run_leg(parse_config(Path(config).read_text())).schedule
    _, header, rows = _read_back(out)
    assert header == ["k", "C_k", "mu_k", "sigma_k"]
    columns = zip(range(sched.privacy.K), sched.clip.tolist(), sched.budget.tolist(), sched.sigma.tolist())
    assert len(rows) == 15 and all(_cells_equal(row, want) for row, want in zip(rows, columns))


def test_sweep_leaves_the_base_config_unchanged(tmp_path, monkeypatch):
    cfg = parse_config(BASE.replace("K = 15", "K = 5"))
    snapshot = dataclasses.replace(cfg)
    monkeypatch.setattr(cli, "load_config", lambda *_: cfg)
    args = ["sweep", "--config", "exp.ini", "--axis", "epsilon", "--values", "3.0,1"]
    assert _exit_code_and_stderr([*args, "--output", str(tmp_path / "grid.csv")]) == (0, "")
    assert cfg == snapshot


# ---------------------------------------------------------------------------
# the setting: dataset, graph and connectivity check, built once per command

SETTING_PARTS = ("synth_dataset", "graph_schedule", "check_strong_connectivity")


@pytest.fixture
def builds(monkeypatch):
    """Calls the CLI makes to each function that builds part of the setting, by name."""
    counts = collections.Counter()

    def counting(name, build):
        def counted(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)

        return counted

    for name in SETTING_PARTS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    return counts


def test_compare_builds_the_setting_once(tmp_path, builds):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 5"))
    args = ["compare", "--config", config, "--set", "run.repeat=3", "--variants", "dyn,const"]
    assert _exit_code_and_stderr(args) == (0, "")
    assert builds == dict.fromkeys(SETTING_PARTS, 1)  # for 3 variants x 3 seeds


@pytest.mark.parametrize(
    "axis,values,count",
    [
        ("epsilon", "0.5,1.0,2.0", 1),
        ("rho_mu", "2,8", 1),
        ("n", "4,8", 2),
        ("n", "4,8,4", 3),
        ("n", "4,4,8", 2),  # a value that keeps n keeps the setting
        ("graph", "ring,complete", 2),
    ],
)
def test_sweep_builds_a_setting_per_value_of_an_axis_that_shapes_it(
    tmp_path, builds, axis, values, count
):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 5"))
    args = ["sweep", "--config", config, "--set", "run.repeat=2", "--axis", axis]
    args += ["--values", values, "--output", str(tmp_path / "grid.csv")]
    assert _exit_code_and_stderr(args) == (0, "")
    assert builds == dict.fromkeys(SETTING_PARTS, count)


@pytest.mark.parametrize(
    "overrides",
    [[], ["task.model=mlp", "graph.kind=explicit", f"graph.matrices=[{np.full((4, 4), 0.25).tolist()}]"]],
    ids=["logistic-exponential", "mlp-explicit"],
)
def test_the_setting_reads_only_the_entries_a_grid_compares(overrides):
    # a grid keeps its setting while these entries hold, so it must read no other
    cfg, read = parse_config(BASE, overrides), set()

    class Recording:
        def __getattr__(self, name):
            read.add(name)
            return getattr(cfg, name)

    _setting(Recording())
    assert "n" in read and read <= set(cli._SETTING_ATTRS)


@pytest.mark.parametrize(
    "command,overrides,error",
    [
        (["sweep", "--axis", "epsilon", "--values", "0.5,-1"], [], "privacy.epsilon must be positive"),
        (["compare", "--variants", "const,dyn"], ["schedule.rho_c=0"], "schedule.rho_c is unset"),
        (["sweep", "--axis", "c0", "--values", "2,1e308"], ["schedule.variant=dyn"], "schedule.c0"),  # sigma_0 overflows
    ],
    ids=["sweep-epsilon", "compare-schedule", "sweep-c0"],
)
def test_a_config_error_in_any_point_comes_before_engine_time(
    tmp_path, monkeypatch, command, overrides, error
):
    calls, run = [], cli.run

    def counted(config):
        calls.append(config.seed)
        return run(config)

    monkeypatch.setattr(cli, "run", counted)
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 5"))
    sets = [arg for item in ("run.repeat=2", *overrides) for arg in ("--set", item)]
    out = tmp_path / "out.csv"
    code, err = _exit_code_and_stderr([command[0], "--config", config, *sets, *command[1:], "--output", str(out)])
    assert (code, calls) == (1, []) and err.startswith(f"config error: {error}"), err
    assert not out.exists()


def test_commands_share_no_setting_across_calls(tmp_path, builds):
    # nothing is cached beyond one command: a second call in the process builds again
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 5"))
    for _ in range(2):
        args = ["compare", "--config", config, "--variants", "dyn"]
        assert _exit_code_and_stderr(args) == (0, "")
    assert builds == dict.fromkeys(SETTING_PARTS, 2)


@pytest.mark.filterwarnings("ignore::pushdp.accountant.RegimeWarning")
def test_accountant_builds_the_setting(tmp_path, builds):
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    assert _exit_code_and_stderr(["accountant", "--config", config]) == (0, "")
    assert builds == dict.fromkeys(SETTING_PARTS, 1)


@pytest.mark.parametrize("graph", ["exponential", "ring"])
def test_compare_with_a_shared_setting_equals_legs_built_alone(tmp_path, builds, graph):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 10"))
    out = tmp_path / "table.csv"
    args = [
        "compare", "--config", config, "--set", f"graph.kind={graph}", "--set", "run.repeat=2",
        "--variants", "dyn,dyn-clip,dyn-mu,const", "--output", str(out),
    ]
    results = []
    for context in (contextlib.nullcontext(), cli_resolving_each_leg()):
        stdout = io.StringIO()
        with context, contextlib.redirect_stdout(stdout):
            assert main(args) == 0
        results.append((stdout.getvalue(), out.read_bytes()))
    assert results[0] == results[1]
    # once shared, then once for each of the 5 x 2 legs
    assert builds["synth_dataset"] == 1 + 10


@pytest.mark.parametrize(
    "axis,values",
    [
        ("n", "4,8,4"),
        ("graph", "ring,complete"),
        ("J", "20,40"),  # a setting kept for J = 20 would run J = 40's privacy solve on its data
        ("data_seed", "0,5"),
        ("model", "logistic,mlp"),
        ("seed", "0,1"),  # seeds 0-1 and 1-2: the points share seed 1's draws
    ],
)
def test_sweep_with_a_shared_setting_equals_legs_built_alone(tmp_path, axis, values):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 10"))
    out = tmp_path / "grid.csv"
    args = [
        "sweep", "--config", config, "--set", "run.repeat=2", "--axis", axis, "--values", values,
        "--output", str(out),
    ]
    results = []
    for context in (contextlib.nullcontext(), cli_resolving_each_leg()):
        stdout = io.StringIO()
        with context, contextlib.redirect_stdout(stdout):
            assert main(args) == 0
        results.append((stdout.getvalue(), out.read_bytes()))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# evaluation: compare evaluates each run at its last round, run and sweep at every one


@pytest.fixture
def evaluations(monkeypatch):
    """The ``engine.evaluate`` calls of each engine run the CLI makes, one count per run."""
    counts, run, evaluate = [], cli.run, engine.evaluate

    def counted_run(config):
        counts.append(0)
        return run(config)

    def counted_evaluate(*args):
        counts[-1] += 1
        return evaluate(*args)

    monkeypatch.setattr(cli, "run", counted_run)
    monkeypatch.setattr(engine, "evaluate", counted_evaluate)
    return counts


@contextlib.contextmanager
def runs_evaluating_every_round():
    """``cli.run`` with every run evaluated at every round, whatever its caller asks."""
    run = cli.run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run", lambda config: run(dataclasses.replace(config, every_round=True)))
        yield


def test_compare_evaluates_each_run_once_and_prints_what_every_round_evaluation_prints(
    tmp_path, evaluations
):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 10"))
    out = tmp_path / "table.csv"
    args = ["compare", "--config", config, "--set", "run.repeat=2", "--output", str(out)]
    results = []
    for context, calls in ((contextlib.nullcontext(), 1), (runs_evaluating_every_round(), 10)):
        evaluations.clear()
        stdout = io.StringIO()
        with context, contextlib.redirect_stdout(stdout):
            assert main(args) == 0
        assert evaluations == [calls] * 10  # 4 variants and the baseline, 2 seeds each
        results.append((stdout.getvalue(), out.read_bytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("command,runs", [("run", 2), ("sweep", 4)])
def test_run_and_sweep_evaluate_every_round(tmp_path, evaluations, command, runs):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 10"))
    args = _command_args(command, config, ["run.repeat=2"], tmp_path / "out.csv")
    if command == "sweep":
        args[args.index("--values") + 1] = "4,8"
    assert _exit_code_and_stderr(args) == (0, "")
    assert evaluations == [10] * runs


# ---------------------------------------------------------------------------
# draws: a grid's legs at one seed share one SeedDraws, within one command


@pytest.fixture
def legs(monkeypatch):
    """(config, log) of each engine run the CLI makes, in order."""
    made, run = [], cli.run

    def recorded(config):
        made.append((config, run(config)))
        return made[-1][-1]

    monkeypatch.setattr(cli, "run", recorded)
    return made


@pytest.mark.parametrize(
    "command,runs",
    [
        (["run"], 2),
        (["compare", "--variants", "dyn,const"], 6),  # (2 variants + baseline) x 2 seeds
        (["sweep", "--axis", "epsilon", "--values", "0.5,1.0"], 4),
    ],
    ids=["run", "compare", "sweep"],
)
def test_a_wrapper_of_run_taking_the_config_alone_sees_every_leg(
    tmp_path, monkeypatch, command, runs
):
    # the benchmark calibration's noise-free control wraps pushdp.cli.run in this form
    logs, run = [], cli.run

    def noise_free(config):
        logs.append(run(dataclasses.replace(config, noise_enabled=False)))
        return logs[-1]

    monkeypatch.setattr(cli, "run", noise_free)
    config = write_config(tmp_path, BASE.replace("variant = const", "variant = dyn"))
    args = [command[0], "--config", config, "--set", "run.repeat=2", *command[1:]]
    assert _exit_code_and_stderr([*args, "--output", str(tmp_path / "out.csv")]) == (0, "")
    assert len(logs) == runs
    assert all((log.rows["sigma_k"] == 0).all() for log in logs)


@pytest.fixture
def streams(monkeypatch):
    """How many ``engine._Streams`` each grid builds, by purpose (PURPOSE_INIT,
    PURPOSE_SAMPLE, PURPOSE_NOISE), told apart by their keys."""
    built = collections.Counter()

    class Counted(engine._Streams):
        def __init__(self, keys):
            super().__init__(keys)
            n = len(keys)
            for seed in range(4):  # the seeds these tests run
                for purpose, known in enumerate(engine.stream_keys(seed, n)):
                    built[purpose] += np.array_equal(known, keys)

    monkeypatch.setattr(engine, "_Streams", Counted)
    return built


GRIDS = {
    "compare": ["compare", "--variants", "dyn,dyn-clip,dyn-mu,const"],  # and the baseline
    "sweep-epsilon": ["sweep", "--axis", "epsilon", "--values", "0.5,1.0"],
    "sweep-graph": ["sweep", "--axis", "graph", "--values", "ring,complete"],
}


def _grid_args(tmp_path, grid, *overrides):
    config = write_config(tmp_path, BASE.replace("K = 15", f"K = {engine.ROUND_BLOCK + 7}"))
    sets = [arg for item in ("run.repeat=2", *overrides) for arg in ("--set", item)]
    command, *flags = GRIDS[grid]
    return [command, "--config", config, *sets, *flags, "--output", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("grid", ["compare", "sweep-epsilon"])
def test_grid_legs_sharing_draws_equal_runs_drawing_alone(tmp_path, legs, grid):
    # K spans a block boundary of the index table
    assert _exit_code_and_stderr(_grid_args(tmp_path, grid)) == (0, "")
    assert len(legs) == (10 if grid == "compare" else 4)
    held = collections.defaultdict(set)  # the ids of the draws the legs at each seed carry
    for config, _ in legs:  # which holds them all, so no id is reused
        held[config.seed].add(id(config.draws))
    assert sorted(held) == [0, 1] and all(len(ids) == 1 for ids in held.values())  # one a seed
    assert len(set.union(*held.values())) == 2
    for config, log in legs:
        assert config.draws.seed == config.seed
        assert log.csv_text() == engine.run(dataclasses.replace(config, draws=None)).csv_text()


@pytest.mark.parametrize("grid", ["compare", "sweep-epsilon"])
def test_a_grid_holds_one_seeds_draws_at_a_time(tmp_path, monkeypatch, grid):
    # the legs run seed by seed, so a seed's (K, n) index table goes before the next seed's
    alive, built, run = weakref.WeakValueDictionary(), [], cli.run  # alive: SeedDraws by id

    def watched(config):
        alive[id(config.draws)] = config.draws
        built.append(sum("indices" in vars(draws) for draws in alive.values()))
        return run(config)

    monkeypatch.setattr(cli, "run", watched)
    assert _exit_code_and_stderr(_grid_args(tmp_path, grid, "run.repeat=3")) == (0, "")
    points = {"compare": 5, "sweep-epsilon": 2}[grid]  # 4 variants and the baseline; 2 values
    assert len(built) == 3 * points and max(built) == 1
    # a seed's first leg draws inside run; the seed's other legs find its table built
    assert built == [0, *[1] * (points - 1)] * 3


@pytest.mark.parametrize(
    "grid,overrides,noise",
    [
        ("compare", [], 8),  # 4 private variants x 2 seeds; the baseline draws no noise
        ("compare", ["run.gamma=corollary", "run.K=0", "privacy.epsilon=0.3"], 8),
        ("sweep-epsilon", [], 4),
        ("sweep-graph", [], 4),  # the draws do not depend on the graph
    ],
)
def test_grid_draws_init_and_samples_once_per_seed_and_noise_per_private_leg(
    tmp_path, streams, grid, overrides, noise
):
    args = _grid_args(tmp_path, grid, *overrides)
    for calls in (1, 2):  # a second identical command draws again
        assert _exit_code_and_stderr(args) == (0, "")
        want = {engine.PURPOSE_INIT: 2, engine.PURPOSE_SAMPLE: 2, engine.PURPOSE_NOISE: noise}
        assert streams == {purpose: calls * count for purpose, count in want.items()}


@pytest.mark.parametrize(
    "command,overrides,init",
    [
        (["sweep", "--axis", "n", "--values", "4,8,4"], [], 6),  # a point changing n redraws
        (["sweep", "--axis", "n", "--values", "4,4"], [], 2),
        (["run"], ["run.repeat=3"], 3),  # one leg a seed: each run draws its own
        (["sweep", "--axis", "n", "--values", "4"], [], 2),  # one point, as for run
    ],
)
def test_grid_redraws_for_a_new_shape_and_run_shares_nothing(
    tmp_path, streams, legs, command, overrides, init
):
    config = write_config(tmp_path, BASE.replace("K = 15", "K = 9"))
    sets = [arg for item in ("run.repeat=2", *overrides) for arg in ("--set", item)]
    out = ["--output", str(tmp_path / "out.csv")]
    args = [command[0], "--config", config, *sets, *command[1:], *out]
    assert _exit_code_and_stderr(args) == (0, "")
    assert streams[engine.PURPOSE_INIT] == streams[engine.PURPOSE_SAMPLE] == init
    points = 1 if command[0] == "run" else len(command[-1].split(","))
    assert [config.draws is not None for config, _ in legs] == [points > 1] * len(legs)
