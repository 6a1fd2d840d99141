import dataclasses

import numpy as np
import pytest

from helpers import (
    logistic_task,
    nonprivate_config,
    private_config,
    reference_run,
    reference_single_node_sgd,
)

from pushdp.accountant import PrivacySpec
from pushdp.engine import (
    PURPOSE_NOISE,
    PURPOSE_SAMPLE,
    ROUND_BLOCK,
    DegenerateWeight,
    NonFiniteParameter,
    RunConfig,
    _mix_arrays,
    node_stream,
    run,
)
from pushdp.models import Model, Task, full_objective, per_sample_gradient, synth_dataset
from pushdp.schedule import build_general_schedule, build_schedule
from pushdp.topology import MixingMatrix, graph_schedule


# ---------------------------------------------------------------------------
# clipping, exercised through ``run`` on a single node


def _one_node_run(clip_bound=None, noise=False, x0=None, d_in=6, J=1, K=1):
    """A K-round run on one node whose clip bound is ``clip_bound`` every round
    (None: the non-private path), plus the unclipped gradient of round 0."""
    task = logistic_task(1, J, d_in=d_in)
    sched = None
    if clip_bound is not None:
        privacy = PrivacySpec.resolve(1.0, 1e-4, J=J, K=K)
        sched = build_general_schedule(np.full(K, clip_bound), np.ones(K), privacy)
    cfg = RunConfig(
        task=task, graph=graph_schedule("ring", 1), schedule=sched, gamma=0.1, K=K,
        seed=3, noise_enabled=noise, x0=x0, capture_detail=True,
    )
    log = run(cfg)
    z0 = log.detail[0].xbar
    idx = int(node_stream(3, 0, PURPOSE_SAMPLE).integers(J))
    data = task.dataset
    return log, per_sample_gradient(task.model, z0, data.features[0, idx], data.labels[0, idx])


def test_clip_passes_short_vectors_through():
    log, g = _one_node_run(clip_bound=1e6)
    assert log.rows[0].clip_rate == 0.0
    assert log.detail[0].mean_clipped_grad.tobytes() == g.tobytes()


def test_clip_scales_to_bound():
    log, g = _one_node_run(clip_bound=1e-3)
    out = log.detail[0].mean_clipped_grad
    assert log.rows[0].clip_rate == 1.0
    assert np.linalg.norm(out) == pytest.approx(1e-3, rel=1e-14)
    # direction preserved
    assert np.allclose(out * (np.linalg.norm(g) / 1e-3), g, rtol=1e-13, atol=0)


def test_clip_zero_vector_and_inf_bound():
    # a saturated sigmoid on the right side of its label has an exactly zero gradient
    data = logistic_task(1, 1).dataset
    x0 = np.zeros((1, 7))
    x0[0, -1] = 1000.0 if data.labels[0, 0] == 1 else -1000.0
    log, g = _one_node_run(clip_bound=0.5, x0=x0)
    assert not g.any() and log.detail[0].stoch_grad_norms[0] == 0.0
    assert log.rows[0].clip_rate == 0.0
    assert not log.detail[0].mean_clipped_grad.any()
    # the non-private path clips at C_k = inf: a gradient of any size passes
    log, g = _one_node_run(clip_bound=None, x0=np.full((1, 7), 3.0), K=3)
    assert all(r.clip_bound == np.inf and r.clip_rate == 0.0 for r in log.rows)
    assert log.detail[0].mean_clipped_grad.tobytes() == g.tobytes()


# ---------------------------------------------------------------------------
# local DP step: the half-step and its noise, through ``run``


def test_local_step_noise_free_is_plain_sgd():
    log, g = _one_node_run(clip_bound=1e6, noise=False)
    det = log.detail[0]
    assert log.rows[0].noise_std == 0.0 and not det.mean_noise.any()
    assert det.halves_mean.tobytes() == (det.xbar - 0.1 * g).tobytes()


def test_local_step_noise_magnitude_matches_sigma():
    # mean squared norm of the injected noise should match sigma^2 * d
    log, _ = _one_node_run(clip_bound=1.0, noise=True, d_in=999, J=5, K=100)
    d = 1000
    sigma = log.rows[0].noise_std
    assert all(r.noise_std == sigma for r in log.rows) and sigma > 0
    mean_per_coord = np.mean([det.mean_noise @ det.mean_noise for det in log.detail]) / d
    assert sigma**2 * 0.85 < mean_per_coord < sigma**2 * 1.15


def test_local_step_sigma_zero_does_not_advance_stream(monkeypatch):
    import pushdp.engine as engine

    streams = {}

    def recording_stream(seed, node, purpose):
        streams[node, purpose] = node_stream(seed, node, purpose)
        return streams[node, purpose]

    monkeypatch.setattr(engine, "node_stream", recording_stream)
    cfg = private_config(n=3, J=10, K=70, epsilon=0.5, variant="dyn", seed=3, noise_enabled=False)
    run(cfg)
    # every noise stream must still produce its first draw
    for i in range(3):
        fresh = node_stream(3, i, PURPOSE_NOISE).standard_normal(cfg.d)
        assert np.array_equal(streams[i, PURPOSE_NOISE].standard_normal(cfg.d), fresh)
    # while the sampling streams did advance
    assert not np.array_equal(
        streams[0, PURPOSE_SAMPLE].integers(10, size=8),
        node_stream(3, 0, PURPOSE_SAMPLE).integers(10, size=8),
    )


# ---------------------------------------------------------------------------
# mixing: ``_mix_arrays``, the exchange ``run`` performs every round


def test_mix_round_identity_matrix_is_noop():
    X = np.array([[1.0, 0.0], [0.0, 5.0]])
    x_next, w_next, z_next = _mix_arrays(X, np.ones(2), np.eye(2))
    assert np.array_equal(x_next, X) and np.array_equal(z_next, X)
    assert np.array_equal(w_next, np.ones(2))


def test_mix_round_complete_graph_averages_in_one_round():
    P = graph_schedule("complete", 4).matrix_at(0).weights
    X = np.array([[float(i), -float(i)] for i in range(4)])
    x_next, _, z_next = _mix_arrays(X, np.ones(4), P)
    mean = X.mean(axis=0)
    assert np.allclose(x_next, mean, atol=1e-15)
    assert np.allclose(z_next, mean, atol=1e-15)


def test_mix_round_conserves_sums():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 3))
    w = rng.uniform(0.5, 2.0, 8)
    # the one-peer graphs are doubly stochastic; a generic column-stochastic
    # matrix also tells P @ x from P.T @ x
    A = rng.uniform(0.0, 1.0, (8, 8))
    for P in (graph_schedule("exponential", 8).matrix_at(0).weights, A / A.sum(axis=0)):
        x_next, w_next, z_next = _mix_arrays(X, w, P)
        assert np.allclose(x_next.sum(axis=0), X.sum(axis=0), atol=1e-12)
        assert w_next.sum() == pytest.approx(w.sum(), abs=1e-12)
        assert np.allclose(z_next * w_next[:, None], x_next, atol=1e-12)


def test_mix_round_degenerate_weight():
    # column-stochastic but node 1 keeps only 10% of its weight per round,
    # so feeding it an already-underflowed weight must trip the floor
    P = MixingMatrix(n=2, weights=np.array([[1.0, 0.9], [0.0, 0.1]])).weights
    with pytest.raises(DegenerateWeight, match="node 1"):
        _mix_arrays(np.zeros((2, 1)), np.array([1.0, 2e-300]), P)


def test_ring_mixing_reaches_consensus():
    sched = graph_schedule("ring", 4)
    X = np.random.default_rng(1).standard_normal((4, 2))
    mean = X.mean(axis=0)
    w = np.ones(4)
    for k in range(200):
        X, w, Z = _mix_arrays(X, w, sched.matrix_at(k).weights)
    assert np.linalg.norm(Z - mean, axis=1).max() <= 1e-6


# ---------------------------------------------------------------------------
# full runs: reductions and conservation laws


def test_single_node_run_reduces_to_sgd():
    K = 200
    cfg = nonprivate_config(n=1, J=40, K=K, gamma=0.1, seed=5, graph="ring", capture_detail=True)
    log = run(cfg)
    ref = reference_single_node_sgd(cfg.task, 0.1, K, 5)
    for k in range(K):
        assert np.max(np.abs(log.detail[k].xbar - ref[k])) <= 1e-12
    assert np.max(np.abs(log.detail[-1].xbar_next - ref[K])) <= 1e-12
    # logged loss agrees with an independent objective evaluation
    assert log.rows[50].loss == pytest.approx(
        full_objective(cfg.task.model, cfg.task.dataset, ref[50])[0], rel=1e-12
    )


def test_pure_mixing_run_contracts_consensus():
    # gamma = 0 freezes the optimization part, leaving only push-sum gossip
    for kind in ("ring", "exponential"):
        cfg = nonprivate_config(n=8, J=4, K=300, gamma=0.0, seed=2, graph=kind)
        log = run(cfg)
        assert log.rows[-1].consensus_err <= 1e-6, kind
        assert float(log.meta["max_weight_sum_drift"]) <= 1e-10


def test_consensus_decay_is_geometric_and_within_theory_rate():
    from pushdp.topology import spectral_report

    cfg = nonprivate_config(n=8, J=4, K=101, gamma=0.0, seed=2, graph="ring")
    log = run(cfg)
    err = np.array([r.consensus_err for r in log.rows])
    # consensus error is mean-squared, so take the square root before
    # comparing the per-round ratio with the norm-level contraction rate
    ratio = (err[100] / err[50]) ** (1.0 / (2 * 50))
    _, constants = spectral_report(cfg.graph, d=cfg.d)
    q = constants.contraction_rate
    assert ratio < 0.999
    assert ratio <= q + 0.05


def test_average_iterate_follows_mean_noisy_gradient():
    cfg = private_config(
        n=4, J=30, K=40, epsilon=1.0, variant="const", clip0=0.5,
        gamma=0.05, seed=3, capture_detail=True,
    )
    log = run(cfg)
    for det in log.detail:
        expected = det.xbar - cfg.gamma * (det.mean_clipped_grad + det.mean_noise)
        assert np.max(np.abs(det.halves_mean - expected)) <= 1e-12
        # column stochasticity: mixing preserves the mean half-step
        assert np.max(np.abs(det.xbar_next - det.halves_mean)) <= 1e-10
        assert det.weight_sum == pytest.approx(4.0, abs=1e-10)


def test_weight_sums_conserved_across_graphs():
    for kind in ("ring", "exponential", "complete"):
        cfg = nonprivate_config(n=6, J=10, K=50, gamma=0.02, seed=1, graph=kind)
        log = run(cfg)
        assert float(log.meta["max_weight_sum_drift"]) <= 1e-10, kind


# ---------------------------------------------------------------------------
# determinism


def test_run_is_deterministic():
    cfg = private_config(n=4, J=20, K=30, epsilon=0.5, variant="dyn", seed=11)
    a = run(cfg).csv_text()
    b = run(cfg).csv_text()
    assert a == b


def _mlp_private_config():
    model = Model(kind="mlp", d_in=5, classes=3, hidden=4)
    task = Task(model=model, dataset=synth_dataset(0, 4, 15, d_in=5, classes=3))
    privacy = PrivacySpec.resolve(1.0, 1e-4, J=15, K=70)
    return RunConfig(
        task=task, graph=graph_schedule("exponential", 4),
        schedule=build_schedule("dyn", privacy, clip0=1.0, rho_c=4.0, rho_mu=4.0),
        gamma=0.05, K=70, seed=6,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: private_config(n=8, J=20, K=40, epsilon=0.5, variant="dyn", seed=9),
        lambda: nonprivate_config(n=6, J=15, K=40, seed=2, graph="ring"),
        lambda: private_config(
            n=5, J=20, K=40, epsilon=0.5, variant="dyn", seed=3, noise_enabled=False
        ),
        # crosses two block boundaries of the stream draws and ends in a partial block
        lambda: private_config(n=3, J=10, K=2 * ROUND_BLOCK + 3, epsilon=1.0, variant="dyn-clip", seed=1),
        _mlp_private_config,
    ],
    ids=["dyn", "nonprivate", "noise-disabled", "partial-block", "mlp"],
)
def test_run_matches_per_node_reference(make):
    cfg = make()
    cfg.capture_detail = True
    log, ref = run(cfg), reference_run(cfg)
    assert log.csv_text() == ref.csv_text()
    for got, want in zip(log.detail, ref.detail, strict=True):
        for name in ("xbar", "xbar_next", "halves_mean", "mean_clipped_grad", "mean_noise"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.weight_sum == want.weight_sum
        assert got.stoch_grad_norms.tobytes() == want.stoch_grad_norms.tobytes()


def test_seed_changes_trajectory():
    a = run(private_config(n=4, J=20, K=25, epsilon=0.5, seed=0))
    b = run(private_config(n=4, J=20, K=25, epsilon=0.5, seed=1))
    assert a.rows[-1].loss != b.rows[-1].loss


def test_noise_ablation_keeps_data_sequence():
    # the noise stream is keyed separately from the sampling stream, so
    # switching noise off must not shift which points get sampled
    on = private_config(n=4, J=20, K=1, epsilon=0.5, seed=4, capture_detail=True)
    off = private_config(n=4, J=20, K=1, epsilon=0.5, seed=4, capture_detail=True, noise_enabled=False)
    det_on = run(on).detail[0]
    det_off = run(off).detail[0]
    assert np.array_equal(det_on.mean_clipped_grad, det_off.mean_clipped_grad)
    assert np.array_equal(det_off.mean_noise, np.zeros(on.d))


def test_noise_hurts_optimization():
    noisy, clean = [], []
    for seed in range(4):
        cfg_on = private_config(n=8, J=60, K=300, epsilon=0.3, variant="const", seed=seed)
        cfg_off = private_config(
            n=8, J=60, K=300, epsilon=0.3, variant="const", seed=seed, noise_enabled=False
        )
        noisy.append(run(cfg_on).rows[-1].loss)
        clean.append(run(cfg_off).rows[-1].loss)
    assert np.mean(noisy) > np.mean(clean)


# ---------------------------------------------------------------------------
# schedules inside the engine


def test_row_schedule_columns_match_schedule():
    cfg = private_config(n=4, J=20, K=30, epsilon=0.5, variant="dyn")
    log = run(cfg)
    sched = cfg.schedule
    for k in (0, 7, 29):
        assert log.rows[k].clip_bound == sched.clip[k]
        assert log.rows[k].step_budget == sched.budget[k]
        assert log.rows[k].noise_std == sched.sigma[k]


def test_noise_disabled_zeroes_sigma_column_only():
    cfg = private_config(n=4, J=20, K=10, epsilon=0.5, variant="dyn", noise_enabled=False)
    log = run(cfg)
    assert all(r.noise_std == 0.0 for r in log.rows)
    assert all(np.isfinite(r.clip_bound) for r in log.rows)


def test_nonprivate_rows_disable_clipping():
    log = run(nonprivate_config(n=2, J=10, K=5))
    for r in log.rows:
        assert r.clip_bound == np.inf
        assert np.isnan(r.step_budget)
        assert r.noise_std == 0.0
        assert r.clip_rate == 0.0


def test_tiny_bound_clips_everything():
    cfg = private_config(n=4, J=20, K=10, epsilon=0.5, variant="const", clip0=1e-6)
    log = run(cfg)
    assert all(r.clip_rate == 1.0 for r in log.rows)


def test_general_schedule_drives_engine():
    K = 12
    privacy = PrivacySpec.resolve(1.0, 1e-4, J=20, K=K)
    clips = 1.5 * 2.0 ** (-np.arange(K) / K)
    sched = build_general_schedule(clips, 1.0 + np.arange(K) % 3, privacy)
    task = logistic_task(4, 20)
    cfg = RunConfig(
        task=task, graph=graph_schedule("exponential", 4), schedule=sched,
        gamma=0.05, K=K, seed=0,
    )
    log = run(cfg)
    for k, r in enumerate(log.rows):
        assert (r.clip_bound, r.step_budget, r.noise_std) == (
            sched.clip[k], sched.budget[k], sched.sigma[k]
        )
    assert log.csv_text() == reference_run(cfg).csv_text()


def test_mlp_run_smoke():
    model = Model(kind="mlp", d_in=5, classes=3, hidden=4)
    data = synth_dataset(0, 4, 15, d_in=5, classes=3)
    task = Task(model=model, dataset=data)
    cfg = RunConfig(
        task=task, graph=graph_schedule("exponential", 4), schedule=None,
        gamma=0.05, K=5, seed=0,
    )
    log = run(cfg)
    assert len(log.rows) == 5
    assert all(np.isfinite(r.loss) for r in log.rows)
    assert log.has_accuracy


# ---------------------------------------------------------------------------
# validation and failure modes


def test_run_rejects_mismatched_shard_count():
    task = logistic_task(4, 10)
    cfg = RunConfig(
        task=task, graph=graph_schedule("ring", 8), schedule=None,
        gamma=0.1, K=3, seed=0,
    )
    with pytest.raises(ValueError, match="shards"):
        run(cfg)


def test_run_rejects_negative_gamma():
    cfg = nonprivate_config(n=2, J=10, K=3)
    cfg.gamma = -0.1
    with pytest.raises(ValueError, match="step size"):
        run(cfg)


def test_run_rejects_short_schedule():
    cfg = private_config(n=2, J=10, K=20, epsilon=0.5)
    cfg.K = 21
    with pytest.raises(ValueError, match="shorter"):
        run(cfg)


@pytest.mark.parametrize("field", ["clip", "sigma"], ids=["_clip", "_sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_run_refuses_schedule_without_finite_positive_noise(field, bad):
    cfg = private_config(n=2, J=10, K=20, epsilon=0.5, variant="dyn")
    values = getattr(cfg.schedule, field).copy()
    values[7] = bad
    cfg.schedule = dataclasses.replace(cfg.schedule, **{field: values})
    with pytest.raises(ValueError, match="finite and positive"):
        run(cfg)


def test_run_rejects_bad_x0_shape():
    cfg = nonprivate_config(n=2, J=10, K=3)
    cfg.x0 = np.zeros((3, cfg.d))
    with pytest.raises(ValueError, match="x0"):
        run(cfg)


def test_x0_override_is_used():
    cfg = nonprivate_config(n=3, J=10, K=2, capture_detail=True)
    x0 = np.arange(3 * cfg.d, dtype=float).reshape(3, cfg.d)
    cfg.x0 = x0
    log = run(cfg)
    assert np.allclose(log.detail[0].xbar, x0.mean(axis=0), atol=1e-15)


def test_divergent_step_size_raises():
    cfg = nonprivate_config(n=2, J=10, K=50, gamma=1e308)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteParameter) as ei:
        run(cfg)
    assert 0 <= ei.value.k < 50
