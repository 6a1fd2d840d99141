"""Acceptance suite: one test per shipping criterion.

Every test asserts its stated tolerance and prints a single summary line
with the measured quantity and runtime.  Run ``pytest -rA tests/test_acceptance.py``
to see all lines together.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from helpers import (
    final_accuracies,
    logistic_task,
    nonprivate_config,
    per_sample_gradient,
    per_sample_loss,
    private_config,
    recorded_rounds,
    reference_run,
    reference_single_node_sgd,
)

from pushdp.accountant import (
    PrivacySpec,
    RegimeWarning,
    compose_general,
    delta_from_mu_eps,
    mu_tot_from_eps_delta,
)
from pushdp.engine import RunConfig, _mix_arrays, run
from pushdp.metrics import summarize
from pushdp.models import Model, Task, synth_dataset
from pushdp.schedule import build_schedule
from pushdp.topology import graph_schedule


def report(name, detail, elapsed, limit):
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeds {limit}s"
    print(f"PASS {name}: {detail}; runtime {elapsed:.2f}s < {limit:.0f}s")


def test_01_accountant_round_trip():
    t0 = time.perf_counter()
    delta = 1e-4
    worst = 0.0
    for eps in (0.3, 0.7, 1.0, 3.0):
        mu = mu_tot_from_eps_delta(eps, delta)
        worst = max(worst, abs(delta_from_mu_eps(mu, eps) - delta))
    assert worst <= 1e-9
    report(
        "criterion 1 (accountant round trip)",
        f"max |delta - recovered delta| = {worst:.3e} (tol 1e-9)",
        time.perf_counter() - t0,
        1.0,
    )


def test_02_composition_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for J, K, rho in itertools.product((100, 1000), (200, 2000), (2.0, 4.0)):
            privacy = PrivacySpec.resolve(1.0, 1e-4, J, K)
            sched = build_schedule("dyn", privacy, clip0=2.0, rho_c=4.0, rho_mu=rho)
            composed = compose_general(sched.budget, 1.0 / J)
            worst = max(worst, abs(composed - privacy.mu_tot) / privacy.mu_tot)
    assert worst <= 1e-8
    report(
        "criterion 2 (composition exactness)",
        f"max relative budget error = {worst:.3e} over 8 grid points (tol 1e-8)",
        time.perf_counter() - t0,
        1.0,
    )


def test_03_push_sum_consensus():
    t0 = time.perf_counter()
    worst_dev, worst_drift = 0.0, 0.0
    for kind in ("ring", "exponential"):
        sched = graph_schedule(kind, 8)
        X = np.random.default_rng(123).standard_normal((8, 5))
        w = np.ones(8)
        target = X.mean(axis=0)
        for k in range(300):
            X, w, Z = _mix_arrays(X, w, sched, k)
            worst_drift = max(worst_drift, abs(float(w.sum()) - 8.0))
        worst_dev = max(worst_dev, float(np.linalg.norm(Z - target, axis=1).max()))
    assert worst_dev <= 1e-6
    assert worst_drift <= 1e-10
    report(
        "criterion 3 (push-sum consensus)",
        f"max final deviation = {worst_dev:.3e} (tol 1e-6), "
        f"max weight-sum drift = {worst_drift:.3e} (tol 1e-10)",
        time.perf_counter() - t0,
        1.0,
    )


def test_04_single_node_sgd_reduction():
    t0 = time.perf_counter()
    K = 500
    cfg = nonprivate_config(n=1, J=40, K=K, gamma=0.1, seed=5, graph="ring")
    with recorded_rounds() as details:
        run(cfg)
    ref = reference_single_node_sgd(cfg.task, 0.1, K, 5)
    worst = max(
        float(np.max(np.abs(details[k].xbar - ref[k]))) for k in range(K)
    )
    worst = max(worst, float(np.max(np.abs(details[-1].mixed.mean(axis=0) - ref[K]))))
    assert worst <= 1e-12
    report(
        "criterion 4 (single-node SGD reduction)",
        f"max per-step parameter gap over {K} steps = {worst:.3e} (tol 1e-12)",
        time.perf_counter() - t0,
        1.0,
    )


def fd_gradient(model, params, x, y, h=1e-6):
    g = np.empty(model.dim)
    for j in range(model.dim):
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        g[j] = (per_sample_loss(model, up, x, y) - per_sample_loss(model, down, x, y)) / (2 * h)
    return g


def test_05_gradient_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    probes = [
        (Model(kind="logistic", d_in=6), 6, 2),
        (Model(kind="mlp", d_in=4, classes=3, hidden=3), 4, 3),
    ]
    for model, d_in, classes in probes:
        for _ in range(10):
            params = rng.standard_normal(model.dim)
            x = rng.standard_normal(d_in)
            y = int(rng.integers(classes))
            exact = per_sample_gradient(model, params, x, y)
            approx = fd_gradient(model, params, x, y)
            err = np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-8)
            worst = max(worst, err)
    assert worst <= 1e-5
    report(
        "criterion 5 (gradient correctness)",
        f"max relative FD error over 20 probes = {worst:.3e} (tol 1e-5)",
        time.perf_counter() - t0,
        5.0,
    )


def test_06_schedule_variant_ordering():
    t0 = time.perf_counter()
    seeds = range(5)
    accs = {}
    for variant in ("dyn", "dyn-clip", "dyn-mu", "const"):
        logs = [
            run(
                private_config(
                    n=20, J=250, K=2000, epsilon=0.3, variant=variant,
                    gamma=0.15, d_in=10, separation=0.8, seed=s,
                )
            )
            for s in seeds
        ]
        accs[variant] = final_accuracies(logs)
    means = {v: float(a.mean()) for v, a in accs.items()}
    assert means["dyn"] >= means["dyn-clip"] >= means["const"], means
    assert means["dyn"] >= means["dyn-mu"] >= means["const"], means
    margin = means["dyn"] - means["const"]
    pooled_se = math.sqrt(
        accs["dyn"].var(ddof=1) / len(accs["dyn"])
        + accs["const"].var(ddof=1) / len(accs["const"])
    )
    assert margin > pooled_se, (margin, pooled_se)
    report(
        "criterion 6 (schedule variant ordering)",
        "mean final accuracy "
        + " ".join(f"{v}={means[v]:.4f}" for v in ("dyn", "dyn-clip", "dyn-mu", "const"))
        + f"; dyn-const margin {margin:.4f} = {margin / pooled_se:.1f} pooled SE",
        time.perf_counter() - t0,
        120.0,
    )


def test_07_node_count_scaling():
    t0 = time.perf_counter()
    J, eps = 80, 0.3
    mu = mu_tot_from_eps_delta(eps, 1e-4)
    cesaro = []
    sizes = (4, 8, 16, 32)
    for n in sizes:
        K = round(n * (J * mu) ** 2)
        gamma = 1.0 / (math.sqrt(n) * J * mu)
        vals = [
            summarize(
                run(
                    private_config(
                        n=n, J=J, K=K, epsilon=eps, variant="dyn", gamma=gamma,
                        d_in=10, separation=0.8, seed=s,
                    )
                )
            ).mean_grad_norm_sq
            for s in range(5)
        ]
        cesaro.append(float(np.mean(vals)))
    drops = [cesaro[i] >= cesaro[i + 1] for i in range(3)]
    assert all(drops), cesaro
    report(
        "criterion 7 (node-count scaling)",
        "mean Cesaro grad norm "
        + " ".join(f"n={n}:{c:.4f}" for n, c in zip(sizes, cesaro))
        + " non-increasing across all 3 pairs",
        time.perf_counter() - t0,
        300.0,
    )


def test_08_graph_ordering():
    t0 = time.perf_counter()
    J, K, eps = 100, 800, 0.3
    means = {}
    for kind in ("ring", "exponential", "complete"):
        accs = []
        for s in range(8):
            model = Model(kind="mlp", d_in=10, classes=3, hidden=8)
            data = synth_dataset(0, 20, J, d_in=10, classes=3, separation=1.5)
            privacy = PrivacySpec.resolve(eps, 1e-4, J, K)
            sched = build_schedule("dyn", privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
            cfg = RunConfig(
                task=Task(model=model, dataset=data), graph=graph_schedule(kind, 20),
                schedule=sched, gamma=0.1, K=K, seed=s,
            )
            accs.append(run(cfg).rows[-1].accuracy)
        means[kind] = float(np.mean(accs))
    assert means["ring"] <= means["exponential"] <= means["complete"], means
    report(
        "criterion 8 (graph ordering)",
        "mean final accuracy "
        + " ".join(f"{g}={means[g]:.4f}" for g in ("ring", "exponential", "complete"))
        + " non-decreasing",
        time.perf_counter() - t0,
        120.0,
    )


def test_09_gradient_norm_decay_diagnostic():
    t0 = time.perf_counter()
    ratios = []
    for s in range(3):
        cfg = nonprivate_config(
            n=8, J=100, K=1000, gamma=0.2, d_in=10, separation=3.0, seed=s,
        )
        with recorded_rounds() as details:
            run(cfg)
        # mean unclipped stochastic gradient norm over the nodes, per round
        trace = np.array([np.mean([np.linalg.norm(g) for g in d.grads]) for d in details])
        dec = len(trace) // 10
        ratios.append(trace[-dec:].mean() / trace[:dec].mean())
    ratio = float(np.mean(ratios))
    assert ratio < 0.5, ratios

    finals = []
    for s in range(5):
        cfg = private_config(
            n=8, J=100, K=1000, epsilon=3.0, variant="const", clip0=1.0,
            gamma=0.05, d_in=10, separation=3.0, seed=s,
        )
        rates = np.array([r.clip_rate for r in run(cfg).rows])
        finals.append(float(rates[-100:].mean()))
    clip_final = float(np.mean(finals))
    assert clip_final < 0.05, finals
    report(
        "criterion 9 (late-stage clipping diagnostic)",
        f"stochastic-norm final/first decile ratio = {ratio:.3f} (< 0.5); "
        f"final-decile clip rate = {clip_final:.3f} (< 0.05)",
        time.perf_counter() - t0,
        60.0,
    )


CONFIG_10 = """\
[run]
n = 4
K = 30
gamma = 0.05

[privacy]
epsilon = 0.5
delta = 0.0001

[schedule]
variant = dyn
rho_c = 4.0
rho_mu = 4.0

[task]
J = 20
d_in = 6
"""


def test_10_byte_identical_reruns(tmp_path):
    from pushdp.cli import _leg, _setting, main, parse_config

    t0 = time.perf_counter()
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG_10)
    outs = [tmp_path / f"out{i}.csv" for i in range(2)]
    assert main(["run", "--config", str(config), "--output", str(outs[0])]) == 0
    assert main(["run", "--config", str(config), "--output", str(outs[1])]) == 0
    rerun = outs[0].read_bytes() == outs[1].read_bytes()
    cfg = parse_config(CONFIG_10)
    reference = reference_run(_leg(cfg, _setting(cfg))).csv_text()
    per_node = outs[0].read_text() == reference
    assert rerun and per_node
    report(
        "criterion 10 (determinism)",
        "rerun and per-node reference CSVs byte-identical to the batched run",
        time.perf_counter() - t0,
        30.0,
    )
