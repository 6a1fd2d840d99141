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
    PURPOSE_INIT,
    PURPOSE_NOISE,
    PURPOSE_SAMPLE,
    ROUND_BLOCK,
    DegenerateWeight,
    NodeState,
    NonFiniteParameter,
    RunConfig,
    clip_gradient,
    local_dp_step,
    mix_round,
    node_stream,
    run,
)
from pushdp.models import Model, Task, full_objective, per_sample_gradient, synth_dataset
from pushdp.schedule import build_general_schedule, build_schedule
from pushdp.topology import MixingMatrix, graph_schedule


# ---------------------------------------------------------------------------
# clipping


def test_clip_passes_short_vectors_through():
    g = np.array([0.3, -0.4])
    out = clip_gradient(g, 1.0)
    assert out is g


def test_clip_scales_to_bound():
    g = np.array([3.0, 4.0])
    out = clip_gradient(g, 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-15)
    # direction preserved
    assert np.allclose(out * 5.0, g)


def test_clip_zero_vector_and_inf_bound():
    z = np.zeros(3)
    assert clip_gradient(z, 0.5) is z
    g = np.array([1e6, 0.0])
    assert clip_gradient(g, np.inf) is g


# ---------------------------------------------------------------------------
# local DP step


def test_local_step_noise_free_is_plain_sgd():
    state = NodeState.initial(np.array([1.0, 2.0]))
    g = np.array([0.5, -1.0])
    out = local_dp_step(state, g, sigma=0.0, gamma=0.1, rng=node_stream(0, 0, PURPOSE_NOISE))
    assert np.array_equal(out, np.array([0.95, 2.1]))


def test_local_step_noise_magnitude_matches_sigma():
    # mean squared norm of the injected noise should match sigma^2 * d
    d, sigma, draws = 1000, 2.0, 100
    state = NodeState.initial(np.zeros(d))
    g = np.zeros(d)
    rng = node_stream(7, 0, PURPOSE_NOISE)
    total = 0.0
    for _ in range(draws):
        out = local_dp_step(state, g, sigma=sigma, gamma=1.0, rng=rng)
        total += float(out @ out)
    mean_per_coord = total / (draws * d)
    assert sigma**2 * 0.85 < mean_per_coord < sigma**2 * 1.15


def test_local_step_sigma_zero_does_not_advance_stream():
    rng_a = node_stream(3, 0, PURPOSE_NOISE)
    rng_b = node_stream(3, 0, PURPOSE_NOISE)
    state = NodeState.initial(np.zeros(4))
    local_dp_step(state, np.zeros(4), sigma=0.0, gamma=1.0, rng=rng_a)
    # both streams must now produce the same next draw
    assert np.array_equal(rng_a.standard_normal(4), rng_b.standard_normal(4))


# ---------------------------------------------------------------------------
# mixing


def test_mix_round_identity_matrix_is_noop():
    eye = MixingMatrix(n=2, weights=np.eye(2))
    states = [NodeState.initial(np.array([1.0, 0.0])), NodeState.initial(np.array([0.0, 5.0]))]
    out = mix_round(states, eye)
    for before, after in zip(states, out):
        assert np.array_equal(before.x, after.x)
        assert after.w == 1.0


def test_mix_round_complete_graph_averages_in_one_round():
    sched = graph_schedule("complete", 4)
    xs = [np.array([float(i), -float(i)]) for i in range(4)]
    states = [NodeState.initial(x) for x in xs]
    out = mix_round(states, sched.matrix_at(0))
    mean = np.mean(xs, axis=0)
    for s in out:
        assert np.allclose(s.x, mean, atol=1e-15)
        assert np.allclose(s.z, mean, atol=1e-15)


def test_mix_round_conserves_sums():
    sched = graph_schedule("exponential", 8)
    rng = np.random.default_rng(0)
    states = [NodeState.initial(rng.standard_normal(3)) for _ in range(8)]
    total_before = np.sum([s.x for s in states], axis=0)
    out = mix_round(states, sched.matrix_at(0))
    total_after = np.sum([s.x for s in out], axis=0)
    assert np.allclose(total_after, total_before, atol=1e-12)
    assert np.sum([s.w for s in out]) == pytest.approx(8.0, abs=1e-12)


def test_mix_round_degenerate_weight():
    # column-stochastic but node 1 keeps only 10% of its weight per round,
    # so feeding it an already-underflowed weight must trip the floor
    P = MixingMatrix(n=2, weights=np.array([[1.0, 0.9], [0.0, 0.1]]))
    states = [
        NodeState(x=np.zeros(1), w=1.0, z=np.zeros(1)),
        NodeState(x=np.zeros(1), w=2e-300, z=np.zeros(1)),
    ]
    with pytest.raises(DegenerateWeight):
        mix_round(states, P)


def test_ring_mixing_reaches_consensus():
    sched = graph_schedule("ring", 4)
    rng = np.random.default_rng(1)
    states = [NodeState.initial(rng.standard_normal(2)) for _ in range(4)]
    mean = np.mean([s.x for s in states], axis=0)
    for k in range(200):
        states = mix_round(states, sched.matrix_at(k))
    for s in states:
        assert np.linalg.norm(s.z - mean) <= 1e-6


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
        assert log.rows[k].clip_bound == sched.clip_bound_at(k)
        assert log.rows[k].step_budget == sched.budget_at(k)
        assert log.rows[k].noise_std == sched.sigma_at(k)


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
    clips = np.full(K, 1.5)
    sched = build_general_schedule(clips, np.ones(K), privacy)
    task = logistic_task(4, 20)
    cfg = RunConfig(
        task=task, graph=graph_schedule("exponential", 4), schedule=sched,
        gamma=0.05, K=K, seed=0,
    )
    log = run(cfg)
    assert all(r.noise_std == pytest.approx(sched.sigma_at(0), rel=1e-15) for r in log.rows)
    assert all(r.clip_bound == 1.5 for r in log.rows)


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


@pytest.mark.parametrize("field", ["_clip", "_sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_run_refuses_schedule_without_finite_positive_noise(field, bad):
    cfg = private_config(n=2, J=10, K=20, epsilon=0.5, variant="dyn")
    values = getattr(cfg.schedule, field).copy()
    values[7] = bad
    object.__setattr__(cfg.schedule, field, values)
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
