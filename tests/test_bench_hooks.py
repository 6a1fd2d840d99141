"""The benchmark's hooks must find their targets in the package.

``bench/tracing.py`` times a job's engine run, CSV write and schedule table
by wrapping functions it names by module and attribute; a hook whose target
was renamed is skipped, and its time silently moves into ``setup_s``.  Every
boundary hook must resolve, and the full set may miss only the targets known
to be gone.  The tracer is loaded read-only from its source file and installed
against the package exactly as the benchmark does.
"""

import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # exec the source instead of importing it, so no bytecode cache is written there
    module = types.ModuleType("bench_tracing")
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    try:
        exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def test_boundary_hooks_name_the_engine_csv_and_table(tracing):
    targets = {f"{h.module}.{h.attr}" for h in tracing.HOOKS if h.boundary}
    assert targets >= {
        "pushdp.cli.run",
        "pushdp.metrics.MetricsLog.write_csv",
        "pushdp.schedule.NoiseSchedule.table_csv",
    }


def test_boundary_hooks_resolve_against_the_package(tracing):
    import pushdp.cli
    import pushdp.metrics
    import pushdp.schedule

    originals = (
        pushdp.cli.run,
        pushdp.metrics.MetricsLog.__dict__["write_csv"],
        pushdp.schedule.NoiseSchedule.__dict__["table_csv"],
    )
    tracer = tracing.Tracer(full=False)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert originals == (
        pushdp.cli.run,
        pushdp.metrics.MetricsLog.__dict__["write_csv"],
        pushdp.schedule.NoiseSchedule.__dict__["table_csv"],
    )


CONFIG = """\
[run]
n = 4
K = 5
repeat = 2

[privacy]
epsilon = 0.5
delta = 0.0001

[schedule]
rho_c = 4.0
rho_mu = 4.0

[task]
J = 20
d_in = 6
"""


@pytest.mark.parametrize(
    "command,runs",
    [
        (["compare", "--variants", "dyn,const"], 6),  # (2 variants + baseline) x 2 seeds
        (["sweep", "--axis", "epsilon", "--values", "0.5,1.0"], 4),  # 2 values x 2 seeds
    ],
    ids=["compare", "sweep"],
)
def test_boundary_tracer_sees_every_engine_run_of_a_grid(tracing, tmp_path, capsys, command, runs):
    # a grid that called the engine by any name but pushdp.cli.run would move its time,
    # uncounted, into the benchmark's setup_s
    import pushdp.cli

    config = tmp_path / "exp.ini"
    config.write_text(CONFIG)
    tracer = tracing.Tracer(full=False)
    tracer.install()
    try:
        args = [command[0], "--config", str(config), *command[1:], "--output", str(tmp_path / "out.csv")]
        assert pushdp.cli.main(args) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.stats["engine.run"][0] == runs
    assert len(tracer.logs) == runs


# Full-tracer targets already gone from the package, which the benchmark still names:
# their stats read zero.  A target that goes missing beyond these, or one of these that
# resolves again, fails the test below.
KNOWN_DEAD_TARGETS = [
    "pushdp.engine.per_sample_gradient",
    "pushdp.cli.spectral_report",
    "pushdp.engine.validate_column_stochastic",
    *(
        f"pushdp.schedule.{cls}.{method}"
        for cls in ("NoiseSchedule", "GeneralSchedule")
        for method in ("clip_bound_at", "budget_at", "sigma_at")
    ),
    "pushdp.schedule.uniform_budget",  # folded into solve_mu0
    "pushdp.topology.GraphSchedule.matrix_at",  # tests build P_k as mix(k, I)
    "pushdp.cli.mu_tot_from_eps_delta",  # reached through the pushdp.accountant hook
]


def test_full_tracer_misses_only_known_dead_targets(tracing):
    tracer = tracing.Tracer(full=True)
    tracer.install()
    try:
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert sorted(missing) == sorted(KNOWN_DEAD_TARGETS)


@pytest.mark.parametrize(
    "command",
    [
        ["compare", "--variants", "dyn,const"],
        ["sweep", "--axis", "graph", "--values", "ring,complete"],
        ["run"],
    ],
    ids=["compare", "sweep", "run"],
)
def test_every_stream_draw_of_a_grid_is_timed_as_engine_time(
    tracing, tmp_path, capsys, monkeypatch, command
):
    # a grid's legs share their seeds' draws; a draw made outside pushdp.cli.run would
    # move its time out of the benchmark's engine time and into setup_s
    import pushdp.cli
    import pushdp.engine as engine

    config = tmp_path / "exp.ini"
    config.write_text(CONFIG)
    tracer = tracing.Tracer(full=False)
    inside = []  # for each key derivation and stream draw: is an engine.run span open?

    def watched(draw):
        def call(*args, **kwargs):
            inside.append(tracer._depth["engine"] == 1)
            return draw(*args, **kwargs)

        return call

    monkeypatch.setattr(engine, "stream_keys", watched(engine.stream_keys))
    for name in ("normals", "indices"):
        monkeypatch.setattr(engine._Streams, name, watched(getattr(engine._Streams, name)))
    tracer.install()
    try:
        args = [command[0], "--config", str(config), *command[1:], "--output", str(tmp_path / "o.csv")]
        assert pushdp.cli.main(args) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert inside and all(inside), inside
