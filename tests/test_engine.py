import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_matrix,
    equal_but_nan_payloads,
    full_objective,
    logistic_task,
    node_stream,
    nonprivate_config,
    one_peer_matrices,
    per_sample_gradient,
    private_config,
    recorded_rounds,
    reference_run,
    reference_single_node_sgd,
    run_from,
)

from pushdp import engine
from pushdp.accountant import PrivacySpec, compose_general, delta_from_mu_eps
from pushdp.engine import (
    INIT_SCALE,
    PURPOSE_INIT,
    PURPOSE_NOISE,
    PURPOSE_SAMPLE,
    ROUND_BLOCK,
    WEIGHT_FLOOR,
    DegenerateWeight,
    NonFiniteParameter,
    RunConfig,
    _mix_arrays,
    _Streams,
    run,
    stream_keys,
)
from pushdp.metrics import COLUMNS
from pushdp.models import Model, Task, synth_dataset
from pushdp.schedule import VARIANTS, NoiseSchedule, build_schedule
from pushdp.topology import GraphSchedule, graph_schedule


# ---------------------------------------------------------------------------
# clipping, exercised through ``run`` on a single node


def _one_node_run(clip_bound=None, noise=False, x0=None, d_in=6, J=1, K=1):
    """A K-round run on one node whose clip bound is ``clip_bound`` every round
    (None: the non-private path), its rounds as recorded, and the unclipped
    gradient of round 0."""
    task = logistic_task(1, J, d_in=d_in)
    sched = None
    if clip_bound is not None:
        privacy = PrivacySpec.resolve(1.0, 1e-4, J=J, K=K)
        sched = build_schedule("const", privacy, clip0=clip_bound)
    cfg = RunConfig(
        task=task, graph=graph_schedule("ring", 1), schedule=sched, gamma=0.1, K=K,
        seed=3, noise_enabled=noise,
    )
    with recorded_rounds() as details:
        log = run(cfg) if x0 is None else run_from(cfg, x0)
    z0 = details[0].xbar
    idx = int(node_stream(3, 0, PURPOSE_SAMPLE).integers(J))
    data = task.dataset
    g = per_sample_gradient(task.model, z0, data.features[0, idx], data.labels[0, idx])
    return log, details, g


def test_clip_passes_short_vectors_through():
    log, details, g = _one_node_run(clip_bound=1e6)
    assert log.rows[0].clip_rate == 0.0
    assert details[0].clipped[0].tobytes() == g.tobytes()


def test_clip_scales_to_bound():
    log, details, g = _one_node_run(clip_bound=1e-3)
    out = details[0].clipped[0]
    assert log.rows[0].clip_rate == 1.0
    assert np.linalg.norm(out) == pytest.approx(1e-3, rel=1e-14)
    # direction preserved
    assert np.allclose(out * (np.linalg.norm(g) / 1e-3), g, rtol=1e-13, atol=0)


def test_clip_zero_vector_and_inf_bound():
    # a saturated sigmoid on the right side of its label has an exactly zero gradient
    data = logistic_task(1, 1).dataset
    x0 = np.zeros((1, 7))
    x0[0, -1] = 1000.0 if data.labels[0, 0] == 1 else -1000.0
    log, details, g = _one_node_run(clip_bound=0.5, x0=x0)
    assert not g.any() and not details[0].grads.any()
    assert log.rows[0].clip_rate == 0.0
    assert not details[0].clipped.any()
    # the non-private path clips at C_k = inf: a gradient of any size passes
    log, details, g = _one_node_run(clip_bound=None, x0=np.full((1, 7), 3.0), K=3)
    assert all(r.C_k == np.inf and r.clip_rate == 0.0 for r in log.rows)
    assert details[0].clipped[0].tobytes() == g.tobytes()


# ---------------------------------------------------------------------------
# local DP step: the half-step and its noise, through ``run``


def test_local_step_noise_free_is_plain_sgd():
    log, details, g = _one_node_run(clip_bound=1e6, noise=False)
    det = details[0]
    assert log.rows[0].sigma_k == 0.0
    assert det.halves[0].tobytes() == (det.xbar - 0.1 * g).tobytes()


def test_local_step_noise_magnitude_matches_sigma():
    # mean squared norm of the injected noise should match sigma^2 * d; on one node
    # the half-step x - 0.1 (g + noise) starts from x = xbar
    log, details, _ = _one_node_run(clip_bound=1.0, noise=True, d_in=999, J=5, K=100)
    d = 1000
    sigma = log.rows[0].sigma_k
    assert all(r.sigma_k == sigma for r in log.rows) and sigma > 0
    noises = [(det.xbar - det.halves[0]) / 0.1 - det.clipped[0] for det in details]
    mean_per_coord = np.mean([noise @ noise for noise in noises]) / d
    assert sigma**2 * 0.85 < mean_per_coord < sigma**2 * 1.15


def test_local_step_sigma_zero_does_not_advance_stream(monkeypatch):
    seed, n, K = 3, 3, ROUND_BLOCK + 6  # the second block is partial
    keys = stream_keys(seed, n)
    built, reads, blocks = [], [], []  # purposes built; of each normals pass; of each indices pass

    class RecordingStreams(engine._Streams):
        def __init__(self, stream_keys):
            super().__init__(stream_keys)
            self.purpose = next(p for p in range(3) if np.array_equal(keys[p], stream_keys))
            built.append(self.purpose)

        def normals(self, out, last=False):
            reads.append(self.purpose)
            return super().normals(out, last)

        def indices(self, J, B, last=False):
            blocks.append(self.purpose)
            return super().indices(J, B, last)

    monkeypatch.setattr(engine, "_Streams", RecordingStreams)

    def sampled(noise_enabled):
        """The index table of the draws a run was handed, which it samples by."""
        built.clear()
        reads.clear()
        blocks.clear()
        cfg = private_config(
            n=n, J=10, K=K, epsilon=0.5, variant="dyn", seed=seed, noise_enabled=noise_enabled
        )
        draws = engine.SeedDraws.of(cfg)
        run(dataclasses.replace(cfg, draws=draws))
        assert blocks == [PURPOSE_SAMPLE] * 2
        return draws.indices

    on = sampled(True)
    assert sorted(built) == [PURPOSE_INIT, PURPOSE_SAMPLE, PURPOSE_NOISE]
    assert reads == [PURPOSE_INIT, PURPOSE_NOISE, PURPOSE_NOISE]
    off = sampled(False)
    # noise off: no noise stream is built or read, and the sampled indices are unchanged
    assert sorted(built) == [PURPOSE_INIT, PURPOSE_SAMPLE]
    assert reads == [PURPOSE_INIT]
    assert np.array_equal(on, off)
    rngs = [node_stream(seed, i, PURPOSE_SAMPLE) for i in range(n)]
    assert np.array_equal(off, [[int(r.integers(10)) for r in rngs] for _ in range(K)])


# ---------------------------------------------------------------------------
# the draws a seed's legs share: ``SeedDraws``


@pytest.mark.parametrize(
    "J,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (70000, np.uint32)]
)
def test_seed_draws_hold_the_index_table_in_the_smallest_dtype_read_only(J, dtype):
    seed, n, K = 5, 3, ROUND_BLOCK + 7  # the table spans a block boundary
    draws = engine.SeedDraws(seed, n, K, J, 4)
    table = draws.indices
    assert table.shape == (K, n) and table.dtype == dtype
    rngs = [node_stream(seed, i, PURPOSE_SAMPLE) for i in range(n)]
    assert np.array_equal(table, [[int(r.integers(J)) for r in rngs] for _ in range(K)])
    init = [node_stream(seed, i, PURPOSE_INIT).standard_normal(4) * INIT_SCALE for i in range(n)]
    assert draws.init.tobytes() == np.stack(init).tobytes()
    for held in (table, draws.init):
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0] = 0


def test_legs_handed_one_seeds_draws_equal_runs_drawing_alone():
    private = private_config(n=4, J=12, K=ROUND_BLOCK + 7, epsilon=0.5, variant="dyn", seed=6)
    legs = [
        private,
        dataclasses.replace(private, noise_enabled=False),
        dataclasses.replace(private, schedule=None),  # the non-private baseline
        dataclasses.replace(private, gamma=0.2),
    ]
    draws = engine.SeedDraws.of(private)
    for every_round in (True, False):
        for leg in legs:
            alone = dataclasses.replace(leg, every_round=every_round)
            shared = run(dataclasses.replace(alone, draws=draws)).csv_text()
            assert shared == run(alone).csv_text()


@pytest.mark.parametrize("field", ["seed", "n", "K", "J", "d"])
def test_run_rejects_draws_made_for_another_seed_or_shape(field):
    cfg = private_config(n=4, J=12, K=9, epsilon=0.5, seed=6)
    shape = dict(seed=6, n=4, K=9, J=12, d=cfg.d)
    engine.run(dataclasses.replace(cfg, draws=engine.SeedDraws(**shape)))  # its own shape runs
    shape[field] += 1
    with pytest.raises(ValueError, match=r"the run needs SeedDraws\(seed=6, n=4, K=9, J=12, d=7\)"):
        engine.run(dataclasses.replace(cfg, draws=engine.SeedDraws(**shape)))


# ---------------------------------------------------------------------------
# mixing: the push-sum weights, which ``run`` mixes once per block, and ``_mix_arrays``,
# the exchange of the iterates it performs every round


def _exchange(X, w, graph, k):
    """Round k's exchange as ``run`` makes it: mixed iterates, weights, de-biased estimates."""
    w_next, x_next, z_next = graph.mix(k, w), np.empty_like(X), np.empty_like(X)
    _mix_arrays(X, w_next, graph, k, x_next, z_next)
    return x_next, w_next, z_next


def test_mix_round_identity_matrix_is_noop():
    X = np.array([[1.0, 0.0], [0.0, 5.0]])
    identity = graph_schedule("explicit", 2, [np.eye(2)])
    x_next, w_next, z_next = _exchange(X, np.ones(2), identity, 0)
    assert np.array_equal(x_next, X) and np.array_equal(z_next, X)
    assert np.array_equal(w_next, np.ones(2))


def test_mix_round_complete_graph_averages_in_one_round():
    X = np.array([[float(i), -float(i)] for i in range(4)])
    x_next, _, z_next = _exchange(X, np.ones(4), graph_schedule("complete", 4), 0)
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
    generic = graph_schedule("explicit", 8, [A / A.sum(axis=0)])
    for graph in (graph_schedule("exponential", 8), generic):
        x_next, w_next, z_next = _exchange(X, w, graph, 0)
        assert np.allclose(x_next.sum(axis=0), X.sum(axis=0), atol=1e-12)
        assert w_next.sum() == pytest.approx(w.sum(), abs=1e-12)
        assert np.allclose(z_next * w_next[:, None], x_next, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 256])
@pytest.mark.parametrize("kind", ["ring", "exponential"])
def test_only_one_peer_schedules_keep_unit_weights(kind, n):
    assert graph_schedule(kind, n).unit_weights
    assert not graph_schedule("complete", n).unit_weights
    assert not graph_schedule("explicit", n, one_peer_matrices(kind, n)).unit_weights


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete", "explicit"])
def test_unit_weight_rounds_mix_only_the_iterates_into_one_buffer(kind):
    """On unit weights a run calls ``mix`` once a round, for the iterates, and each round's
    gradient reads z_i from the iterate buffer the mix writes; a dense schedule also mixes
    the weights each round and divides into a buffer of its own."""
    K, n = ROUND_BLOCK + 9, 6
    cfg = nonprivate_config(n=n, J=10, K=K, gamma=0.05, seed=4, graph="exponential")
    if kind != "exponential":
        matrices = one_peer_matrices("exponential", n) if kind == "explicit" else None
        cfg = dataclasses.replace(cfg, graph=graph_schedule(kind, n, matrices))
    calls, zs, mixed = [], [], []
    mix, gradients, mix_arrays = GraphSchedule.mix, engine.batched_sample_gradients, engine._mix_arrays

    def counted_mix(self, k, x, out=None):
        calls.append(k)
        return mix(self, k, x, out=out)

    def record_gradients(model, Z, *args):
        zs.append(Z.base)
        return gradients(model, Z, *args)

    def record_mix_arrays(halves, weights, graph, k, out, z):
        mixed.append(out.base)
        return mix_arrays(halves, weights, graph, k, out, z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphSchedule, "mix", counted_mix)
        patch.setattr(engine, "batched_sample_gradients", record_gradients)
        patch.setattr(engine, "_mix_arrays", record_mix_arrays)
        log = run(cfg)
    unit, iterates = kind in ("ring", "exponential"), mixed[0]
    assert len(calls) == (K if unit else 2 * K)
    assert len(zs) == len(mixed) == K and all(buffer is iterates for buffer in mixed)
    assert all((z is iterates) == unit for z in zs)
    if unit:
        assert log.meta["max_weight_sum_drift"] == 0.0


def _starving_config(a, gamma, K=2 * ROUND_BLOCK):
    """Two nodes mixing by [[1, 1 - a], [0, a]], so node 1's weight is a^(k+1) after round k."""
    cfg = private_config(n=2, J=10, K=K, epsilon=1.0, variant="const", seed=3, gamma=gamma, clip0=1.0)
    return dataclasses.replace(cfg, graph=graph_schedule("explicit", 2, [[[1.0, 1 - a], [0.0, a]]]))


def test_mix_round_degenerate_weight():
    # column-stochastic but node 1 keeps only 10% of its weight per round, so its
    # weight 0.1^(k+1) falls to the floor within 300 rounds
    with pytest.raises(DegenerateWeight, match="node 1"):
        run(_starving_config(0.1, gamma=0.1, K=310))


# (a, the round whose weights fall to WEIGHT_FLOOR, a step size that diverges before it):
# at a block's first round, and twice inside a block, where the run diverges in that block
@pytest.mark.parametrize("a, first, diverging", [
    (2.2e-5, ROUND_BLOCK, 1e20), (2e-4, ROUND_BLOCK + 17, 1e50), (1e-3, ROUND_BLOCK + 36, 1e50),
])
def test_weight_underflow_mid_block_raises_like_a_per_round_check(a, first, diverging):
    cfg = _starving_config(a, gamma=0.1)
    P, w = dense_matrix(cfg.graph, 0), np.ones(2)
    for k in range(cfg.K):  # the check each round made when it mixed its own weights
        w = P @ w
        if (w <= WEIGHT_FLOOR).any():
            break
    assert k == first and int(np.argmax(w <= WEIGHT_FLOOR)) == 1
    with recorded_rounds() as details, pytest.raises(DegenerateWeight) as raised:
        run(cfg)
    assert str(raised.value) == "push-sum weight underflowed at node 1"
    assert len(details) == first  # every round before it ran, and no round after
    cfg, ref = _starving_config(a, gamma=diverging), []
    with np.errstate(all="ignore"):
        reference_run(cfg, ref)
        with pytest.raises(NonFiniteParameter) as raised:
            run(cfg)
    assert raised.value.k == next(k for k, detail in enumerate(ref) if not np.isfinite(detail.mixed).all())
    assert raised.value.k // ROUND_BLOCK == (first - 1) // ROUND_BLOCK  # the last block it ran


# (step size, the error raised): both rounds fall in the block of rounds 64-127, the
# weights starving at round 81 and the iterates diverging at round 85 or at round 79
@pytest.mark.parametrize("gamma, error", [(0.1, DegenerateWeight), (1e20, NonFiniteParameter)])
def test_starving_and_diverging_in_one_block_raise_at_the_earlier_round(gamma, error):
    cfg, ref = _starving_config(2e-4, gamma=gamma), []
    with np.errstate(all="ignore"):
        reference_run(cfg, ref)  # it runs every round: find where each failure sets in
    starved = next(k for k, detail in enumerate(ref[1:]) if (detail.weights <= WEIGHT_FLOOR).any())
    diverged = next(k for k, detail in enumerate(ref) if not np.isfinite(detail.mixed).all())
    assert starved // ROUND_BLOCK == diverged // ROUND_BLOCK == 1
    assert (starved < diverged) == (error is DegenerateWeight)
    with recorded_rounds() as details, pytest.raises(error) as raised:
        run(cfg)
    if error is DegenerateWeight:
        assert str(raised.value) == "push-sum weight underflowed at node 1"
    else:
        assert raised.value.k == diverged
    assert len(details) == starved  # the block ran up to its starved round, and no round after
    for k, (got, want) in enumerate(zip(details[: min(starved, diverged)], ref)):
        names = ("grads", "clipped", "halves", "weights", "mixed") + (("xbar",) if k < ROUND_BLOCK else ())
        for name in names:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)
    assert all(detail.xbar is None for detail in details[ROUND_BLOCK:])  # its block was not observed


def test_ring_mixing_reaches_consensus():
    sched = graph_schedule("ring", 4)
    X = np.random.default_rng(1).standard_normal((4, 2))
    mean = X.mean(axis=0)
    w = np.ones(4)
    for k in range(200):
        X, w, Z = _exchange(X, w, sched, k)
    assert np.linalg.norm(Z - mean, axis=1).max() <= 1e-6


# ---------------------------------------------------------------------------
# full runs: reductions and conservation laws


def test_single_node_run_reduces_to_sgd():
    K = 200
    cfg = nonprivate_config(n=1, J=40, K=K, gamma=0.1, seed=5, graph="ring")
    with recorded_rounds() as details:
        log = run(cfg)
    ref = reference_single_node_sgd(cfg.task, 0.1, K, 5)
    for k in range(K):
        assert np.max(np.abs(details[k].xbar - ref[k])) <= 1e-12
    assert np.max(np.abs(details[-1].mixed.mean(axis=0) - ref[K])) <= 1e-12
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
        assert log.meta["max_weight_sum_drift"] == 0.0, kind  # every weight stays exactly 1.0


def test_push_sum_debiases_iterates_whose_weights_move():
    # the directed-graph mechanism: rows that do not sum to one move the weights and
    # bias the raw iterates, and only the de-biased z_i = x_i / w_i reach consensus
    cfg = dataclasses.replace(
        nonprivate_config(n=3, J=4, K=300, gamma=0.0, seed=2),
        graph=graph_schedule("explicit", 3, MOVING_WEIGHTS),
    )
    with recorded_rounds() as details:
        log = run(cfg)
    assert log.rows[-1].consensus_err <= 1e-12
    assert float(log.meta["max_weight_sum_drift"]) <= 1e-10
    last = details[-1]
    assert np.abs(last.mixed - last.xbar).max() > 0.1  # the raw iterates stay biased
    assert np.abs(last.weights - 1.0).max() > 0.1


def test_consensus_decay_is_geometric_and_within_theory_rate():
    cfg = nonprivate_config(n=8, J=4, K=101, gamma=0.0, seed=2, graph="ring")
    log = run(cfg)
    err = np.array([r.consensus_err for r in log.rows])
    # consensus error is mean-squared, so take the square root before
    # comparing the per-round ratio with the second-largest eigenvalue modulus
    ratio = (err[100] / err[50]) ** (1.0 / (2 * 50))
    lambda_2 = np.sort(np.abs(np.linalg.eigvals(dense_matrix(cfg.graph, 0))))[-2]
    assert lambda_2 == pytest.approx(np.cos(np.pi / 8), abs=1e-12)
    assert ratio == pytest.approx(lambda_2, abs=1e-6)


def test_average_iterate_follows_mean_noisy_gradient():
    cfg = private_config(
        n=4, J=30, K=40, epsilon=1.0, variant="const", clip0=0.5,
        gamma=0.05, seed=3,
    )
    with recorded_rounds() as details:
        run(cfg)
    ref = []
    reference_run(cfg, ref)  # the noise each node added, which the round does not pass on
    for det, want in zip(details, ref, strict=True):
        halves_mean = det.halves.mean(axis=0)
        expected = det.xbar - cfg.gamma * (det.clipped.mean(axis=0) + want.noise.mean(axis=0))
        assert np.max(np.abs(halves_mean - expected)) <= 1e-12
        # column stochasticity: mixing preserves the mean half-step
        assert np.max(np.abs(det.mixed.mean(axis=0) - halves_mean)) <= 1e-10
        assert det.weights.sum() == pytest.approx(4.0, abs=1e-10)


def test_weight_sums_conserved_across_graphs():
    for kind in ("ring", "exponential", "complete"):
        cfg = nonprivate_config(n=6, J=10, K=50, gamma=0.02, seed=1, graph=kind)
        log = run(cfg)
        if kind == "complete":
            assert float(log.meta["max_weight_sum_drift"]) <= 1e-10, kind
        else:  # one-peer push: every weight stays exactly 1.0
            assert log.meta["max_weight_sum_drift"] == 0.0, kind


# ---------------------------------------------------------------------------
# determinism


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**128 - 1), n=st.integers(1, 300))
@example(seed=0, n=1)
@example(seed=2**32 - 1, n=7)
@example(seed=2**32, n=300)
@example(seed=2**64, n=20)
def test_stream_keys_match_seed_sequence(seed, n):
    keys = stream_keys(seed, n)
    assert keys.shape == (3, n, 2) and keys.dtype == np.uint64
    for p in range(3):
        for i in range(n):
            want = np.random.SeedSequence([seed, i, p]).generate_state(2, np.uint64)
            assert np.array_equal(keys[p, i], want), (p, i)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_stream_keys_reject_negative_seed_like_seed_sequence(seed):
    with pytest.raises(ValueError):
        np.random.SeedSequence([seed, 0, 0])
    with pytest.raises(ValueError):
        stream_keys(seed, 2)


def _live_state(state: dict) -> tuple:
    """What later draws read of a Philox state: ``uinteger`` only while
    ``has_uint32`` marks it as a spare half word."""
    spare = state["uinteger"] if state["has_uint32"] else None
    inner = state["state"]
    return (*inner["counter"].tolist(), *inner["key"].tolist(), *state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], spare)


def _philox_generators(keys):
    return [np.random.Generator(np.random.Philox(key=k)) for k in keys]


@pytest.mark.parametrize(
    "key",
    [(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1),
     *np.random.default_rng(4).integers(0, 2**64, size=(3, 2), dtype=np.uint64).tolist()],
)
def test_set_leaves_a_fresh_philox_state_keyed_to_the_node(key):
    keys = np.array([(1, 2), key, (3, 4)], dtype=np.uint64)
    streams = _Streams(keys)
    streams._set(streams._states, 1)
    got, want = streams._gen.bit_generator.state, np.random.Philox(key=keys[1]).state
    assert got["state"]["key"].tolist() == list(key)
    assert _live_state(got) == _live_state(want) and got["uinteger"] == want["uinteger"]


def test_round_block_is_even():
    # a block reads B / 2 raw words; only the last block, which keeps no state,
    # may be odd and leave a word's high half unread
    assert ROUND_BLOCK % 2 == 0


# 2**32 mod 3 * 2**30 = 2**30: a quarter of all draws are rejected; from
# 2**32 + 1 numpy draws 64-bit words, and every raw block counts as rejected
@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(
    keys=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=4),
    J=st.sampled_from([1, 2, 3, 250, 3 * 2**30, 2**32, 2**32 + 5]),
    halves=st.lists(st.integers(1, ROUND_BLOCK // 2), max_size=3),
    last_B=st.integers(1, ROUND_BLOCK),
)
def test_sample_indices_equal_generator_integers(keys, J, halves, last_B):
    """``_Streams.indices`` returns each node's ``integers(J, size=B)`` block for
    block after block, and a non-final block leaves the state numpy's would."""
    keys = np.array(keys, dtype=np.uint64)
    streams, gens = _Streams(keys), _philox_generators(keys)
    for B, last in [(2 * h, False) for h in halves] + [(last_B, True)]:
        got = streams.indices(J, B, last)
        want = np.stack([gen.integers(J, size=B) for gen in gens])
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if not last and J > 1:  # at J = 1 numpy draws nothing and every index is 0
            for state, gen in zip(streams._states, gens, strict=True):
                assert _live_state(state) == _live_state(gen.bit_generator.state)


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(
    keys=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=4),
    d=st.integers(1, 12),
    blocks=st.lists(st.integers(1, ROUND_BLOCK), max_size=3),
    last_half=st.integers(0, ROUND_BLOCK // 2 - 1),
)
def test_normals_equal_generator_standard_normal(keys, d, blocks, last_half):
    """``_Streams.normals`` writes each node's ``standard_normal((B, d))`` block
    into its row, block after block, and a non-final block saves the state numpy's
    generator is left in."""
    keys = np.array(keys, dtype=np.uint64)
    streams, gens = _Streams(keys), _philox_generators(keys)
    for B, last in [(B, False) for B in blocks] + [(2 * last_half + 1, True)]:
        got = np.empty((len(keys), B, d))
        assert streams.normals(got, last) is got
        want = np.stack([gen.standard_normal((B, d)) for gen in gens])
        assert got.tobytes() == want.tobytes()
        if not last:
            for state, gen in zip(streams._states, gens, strict=True):
                assert _live_state(state) == _live_state(gen.bit_generator.state)


def test_sample_indices_redraw_rejected_blocks():
    J, B = 3 * 2**30, ROUND_BLOCK
    keys = stream_keys(5, 8)[PURPOSE_SAMPLE]
    streams, gens = _Streams(keys), _philox_generators(keys)
    raw = np.stack([np.random.Philox(key=k).random_raw(B // 2) for k in keys])
    u = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).reshape(len(keys), B)
    first = streams.indices(J, B)
    want = np.stack([gen.integers(J, size=B) for gen in gens])
    # numpy rejects some words, so the raw decoding alone is wrong; the redraw is not
    assert not np.array_equal((u * np.uint64(J)) >> 32, want)
    assert np.array_equal(first, want)
    # an odd number of rejections leaves a spare half word, which the next block reads first
    assert any(state["has_uint32"] for state in streams._states)
    last = streams.indices(J, 7, last=True)
    assert np.array_equal(last, np.stack([gen.integers(J, size=7) for gen in gens]))



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


# a 3-node explicit schedule whose columns sum to one but whose rows do not
MOVING_WEIGHTS = [
    [[0.5, 0.2, 0.0], [0.5, 0.8, 0.3], [0.0, 0.0, 0.7]],
    [[0.6, 0.0, 0.1], [0.0, 0.9, 0.0], [0.4, 0.1, 0.9]],
]

REFERENCE_CASES = {
    "dyn": lambda: private_config(n=8, J=20, K=40, epsilon=0.5, variant="dyn", seed=9),
    "nonprivate": lambda: nonprivate_config(n=6, J=15, K=40, seed=2, graph="ring"),
    "noise-disabled": lambda: private_config(
        n=5, J=20, K=40, epsilon=0.5, variant="dyn", seed=3, noise_enabled=False
    ),
    # crosses two block boundaries of the stream draws and ends in a partial block
    "partial-block": lambda: private_config(
        n=3, J=10, K=2 * ROUND_BLOCK + 3, epsilon=1.0, variant="dyn-clip", seed=1
    ),
    "mlp": _mlp_private_config,
    # an explicit schedule that is not doubly stochastic, so the push-sum weights move,
    # over a block boundary; FINAL_ONLY_CASES runs it evaluated at its last round only
    "explicit-moving-weights": lambda: dataclasses.replace(
        private_config(n=3, J=10, K=ROUND_BLOCK + 9, epsilon=0.5, variant="dyn", seed=4),
        graph=graph_schedule("explicit", 3, MOVING_WEIGHTS),
    ),
    # a seed of two 32-bit words keys the streams by multi-word entropy
    "seed-2^40+3": lambda: private_config(
        n=5, J=12, K=ROUND_BLOCK + 7, epsilon=0.5, variant="dyn", seed=2**40 + 3
    ),
}


@pytest.mark.parametrize("make", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_run_matches_per_node_reference(make):
    cfg = make()
    ref = []
    with recorded_rounds() as details:
        log = run(cfg)
    assert log.csv_text() == reference_run(cfg, ref).csv_text()
    assert len(details) == len(ref) == cfg.K
    for got, want in zip(details, ref):
        for name in ("xbar", "grads", "clipped", "halves", "weights", "mixed"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@st.composite
def _differential_configs(draw):
    """A run config over every axis the round loop branches on: graph kind (the explicit
    one moves the push-sum weights), n, K on both sides of the block boundary, J, model,
    variant, noise on or off, and lone or shared draws."""
    kind = draw(st.sampled_from(["ring", "exponential", "complete", "explicit"]))
    n = 3 if kind == "explicit" else draw(st.integers(1, 9))
    K = draw(st.sampled_from([1, 2, ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1, 2 * ROUND_BLOCK + 1, 131]))
    J = draw(st.integers(1, 12))
    classes = draw(st.sampled_from([None, 2, 3]))  # None: the logistic model
    variant = draw(st.sampled_from(["nonprivate", *VARIANTS]))
    seed = draw(st.sampled_from([0, 2**40 + 3, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    if classes is None:
        model = Model(kind="logistic", d_in=4)
    else:
        model = Model(kind="mlp", d_in=4, classes=classes, hidden=3)
    data = synth_dataset(draw(st.integers(0, 3)), n, J, d_in=4, classes=classes or 2)
    sched = None
    if variant != "nonprivate":
        privacy = PrivacySpec.resolve(0.5, 1e-4, J, K)
        sched = build_schedule(variant, privacy, clip0=1.0, rho_c=4.0, rho_mu=4.0)
    cfg = RunConfig(
        task=Task(model=model, dataset=data),
        graph=graph_schedule(kind, n, MOVING_WEIGHTS if kind == "explicit" else None),
        schedule=sched, gamma=0.05, K=K, seed=seed, noise_enabled=draw(st.booleans()),
    )
    return dataclasses.replace(cfg, draws=engine.SeedDraws.of(cfg)) if draw(st.booleans()) else cfg


@settings(database=None, derandomize=True, deadline=None, max_examples=80)
@given(_differential_configs())
def test_run_matches_per_node_reference_on_drawn_configs(cfg):
    assert run(cfg).csv_text() == reference_run(cfg).csv_text()


FINAL_ONLY_CASES = {
    **REFERENCE_CASES,
    "K=1": lambda: private_config(n=4, J=10, K=1, epsilon=0.5, variant="dyn", seed=5),
}


@pytest.mark.parametrize("make", FINAL_ONLY_CASES.values(), ids=FINAL_ONLY_CASES.keys())
def test_final_only_evaluation_keeps_every_other_cell(make, monkeypatch):
    # one evaluate call, at round K-1; the rounds before it leave their evaluation cells NaN
    full, calls, evaluate = run(make()), [], engine.evaluate

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(engine, "evaluate", counted)
    final = run(dataclasses.replace(make(), every_round=False))
    assert len(calls) == 1
    assert final.meta == full.meta
    assert final.rows[-1:].tobytes() == full.rows[-1:].tobytes()
    for name in COLUMNS:
        if name in ("loss", "grad_norm_sq", "accuracy"):
            assert np.isnan(final.rows[name][:-1]).all(), name
        else:
            assert final.rows[name].tobytes() == full.rows[name].tobytes(), name


# zeros of both signs, subnormals, values whose squares overflow, infinities and NaN
_AWKWARD = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.inf, -np.inf, np.nan])


def _awkward_rows(n, d, special, *salt):
    """(n, d) normals over ten decades, a fifth of the entries drawn from ``_AWKWARD``
    (its infinities and NaN only if ``special``), and a column of -0.0; ``salt`` varies
    the draw."""
    rng = np.random.default_rng([n, d, special, *salt])
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 5, (n, d))
    mask = rng.random((n, d)) < 0.2
    X[mask] = rng.choice(_AWKWARD if special else _AWKWARD[:6], mask.sum())
    X[:, 0] = -0.0
    return X


@pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
@pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (3, 11), (20, 11), (256, 11), (7, 210), (256, 33)])
def test_node_sum_by_einsum_equals_the_axis_0_sum_bitwise(n, d, special):
    # the sum behind each round's xbar adds the rows in the same order as X.sum(axis=0)
    # for d >= 2, which every model has (at d = 1 numpy sums the column pairwise); a
    # run stops at its first non-finite iterate, so no NaN's payload reaches an output
    X = _awkward_rows(n, d, special)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = np.einsum("ij->j", X), X.sum(axis=0)
    assert equal_but_nan_payloads(got, want)
    if not special:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
@pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (3, 11), (20, 11), (256, 11), (7, 210), (256, 33)])
def test_block_node_sums_by_einsum_equal_each_rounds_node_sum_bitwise(n, d, special):
    # a block's xbars come from one einsum over its B stacked iterates, which must add
    # each round's rows as that round's own einsum("ij->j") does
    H = np.stack([_awkward_rows(n, d, special, b) for b in range(ROUND_BLOCK)])
    with np.errstate(invalid="ignore", over="ignore"):
        got = np.einsum("bij->bj", H)
        for b, rows in enumerate(H):
            want = np.einsum("ij->j", rows)
            assert equal_but_nan_payloads(got[b], want)
            if not special:
                assert got[b].tobytes() == want.tobytes()


@pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (3, 11), (20, 11), (256, 11), (7, 210)])
def test_row_norms_by_vecdot_equal_linalg_norm_bitwise(n, d, special):
    # the clip's gradient norms: vecdot runs the ddot np.linalg.norm takes of one row
    G = _awkward_rows(n, d, special)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = np.sqrt(np.vecdot(G, G)), np.array([np.linalg.norm(g) for g in G])
    assert got.tobytes() == want.tobytes()


def test_divergence_mid_block_raises_at_the_first_non_finite_round():
    cfg = private_config(n=3, J=10, K=2 * ROUND_BLOCK, epsilon=1.0, variant="const", seed=1,
                         gamma=3.2e306, clip0=1.0)
    ref = []
    with np.errstate(all="ignore"):
        reference_run(cfg, ref)
        with pytest.raises(NonFiniteParameter) as raised:
            run(cfg)
    first = next(k for k, detail in enumerate(ref) if not np.isfinite(detail.mixed).all())
    assert ROUND_BLOCK < first < 2 * ROUND_BLOCK - 1  # inside the second block
    assert raised.value.k == first


def _constant_evaluate(model, data, params):
    return 7.0, np.full(model.dim, 0.5), 0.25


@pytest.mark.parametrize(
    "make",
    [
        lambda: private_config(n=6, J=20, K=ROUND_BLOCK + 5, epsilon=0.5, variant="dyn", seed=9),
        lambda: nonprivate_config(n=5, J=15, K=30, seed=2, graph="ring"),
        _mlp_private_config,
    ],
    ids=["dyn", "nonprivate", "mlp"],
)
def test_evaluation_only_observes(make, monkeypatch):
    # evaluate reads the average iterate and feeds nothing back, so a change to its
    # formulas can move the loss, grad_norm_sq and accuracy columns and nothing else
    real = run(make()).csv_text().splitlines()
    monkeypatch.setattr(engine, "evaluate", _constant_evaluate)
    cfg = make()
    fake = run(cfg).csv_text().splitlines()
    meta = sum(line.startswith("#") for line in real)
    assert fake[: meta + 1] == real[: meta + 1]  # metadata and the column header
    header = real[meta].split(",")
    observed = [header.index(name) for name in ("loss", "grad_norm_sq", "accuracy")]
    assert len(fake) == len(real) == meta + 1 + cfg.K
    for got, want in zip(fake[meta + 1 :], real[meta + 1 :]):
        got, want = got.split(","), want.split(",")
        assert [got[i] for i in observed] == ["7.0", repr(0.25 * cfg.d), "0.25"]
        assert [c for i, c in enumerate(got) if i not in observed] == [
            c for i, c in enumerate(want) if i not in observed
        ]


def test_seed_changes_trajectory():
    a = run(private_config(n=4, J=20, K=25, epsilon=0.5, seed=0))
    b = run(private_config(n=4, J=20, K=25, epsilon=0.5, seed=1))
    assert a.rows[-1].loss != b.rows[-1].loss


def test_noise_ablation_keeps_data_sequence():
    # the noise stream is keyed separately from the sampling stream, so
    # switching noise off must not shift which points get sampled
    on = private_config(n=4, J=20, K=1, epsilon=0.5, seed=4)
    off = private_config(n=4, J=20, K=1, epsilon=0.5, seed=4, noise_enabled=False)
    with recorded_rounds() as details:
        run(on)
        run(off)
    det_on, det_off = details
    assert np.array_equal(det_on.clipped, det_off.clipped)
    # with noise off the half-step is the initial iterate minus the clipped step alone
    init = [node_stream(4, i, PURPOSE_INIT).standard_normal(on.d) for i in range(4)]
    x0 = np.stack(init) * INIT_SCALE
    assert det_off.halves.tobytes() == (x0 - off.gamma * det_off.clipped).tobytes()
    assert not np.array_equal(det_on.halves, det_off.halves)


@pytest.mark.parametrize(
    "make, drew",
    [
        (lambda: private_config(n=4, J=20, K=5, epsilon=0.5), True),
        (lambda: private_config(n=4, J=20, K=5, epsilon=0.5, noise_enabled=False), False),
        (lambda: nonprivate_config(n=4, J=20, K=5), False),
    ],
    ids=["private", "noise-disabled", "nonprivate"],
)
def test_metadata_records_whether_the_run_drew_noise(make, drew):
    assert run(make()).meta["noise_enabled"] is drew


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
        assert log.rows[k].C_k == sched.clip[k]
        assert log.rows[k].mu_k == sched.budget[k]
        assert log.rows[k].sigma_k == sched.sigma[k]
    # the fields are the CSV header, and the schedule columns its arrays bit for bit
    header = [line for line in log.csv_text().splitlines() if not line.startswith("#")][0]
    assert ",".join(log.rows.dtype.names) == header
    for name, column in (("C_k", sched.clip), ("mu_k", sched.budget), ("sigma_k", sched.sigma)):
        assert log.rows[name].tobytes() == column[: cfg.K].tobytes()


def test_noise_disabled_zeroes_sigma_column_only():
    cfg = private_config(n=4, J=20, K=10, epsilon=0.5, variant="dyn", noise_enabled=False)
    log = run(cfg)
    assert all(r.sigma_k == 0.0 for r in log.rows)
    assert all(np.isfinite(r.C_k) for r in log.rows)


def test_nonprivate_rows_disable_clipping():
    log = run(nonprivate_config(n=2, J=10, K=5))
    for r in log.rows:
        assert r.C_k == np.inf
        assert np.isnan(r.mu_k)
        assert r.sigma_k == 0.0
        assert r.clip_rate == 0.0


def test_tiny_bound_clips_everything():
    cfg = private_config(n=4, J=20, K=10, epsilon=0.5, variant="const", clip0=1e-6)
    log = run(cfg)
    assert all(r.clip_rate == 1.0 for r in log.rows)


@pytest.mark.filterwarnings("ignore::pushdp.accountant.RegimeWarning")
def test_general_schedule_drives_engine():
    # a noise level that no named variant makes: it steps through three levels
    K, J = 12, 20
    clips = 1.5 * 2.0 ** (-np.arange(K) / K)
    sigma = 0.4 * (1.0 + np.arange(K) % 3)
    mu_tot = compose_general(clips / sigma, 1 / J)  # the target these budgets meet
    privacy = PrivacySpec(epsilon=1.0, delta=delta_from_mu_eps(mu_tot, 1.0), J=J, K=K, mu_tot=mu_tot)
    sched = NoiseSchedule(clip=clips, budget=clips / sigma, rho_c=2.0, rho_mu=1.0, privacy=privacy)
    task = logistic_task(4, J)
    cfg = RunConfig(
        task=task, graph=graph_schedule("exponential", 4), schedule=sched,
        gamma=0.05, K=K, seed=0,
    )
    log = run(cfg)
    for k, r in enumerate(log.rows):
        assert (r.C_k, r.mu_k, r.sigma_k) == (
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
    assert all(0.0 <= r.accuracy <= 1.0 for r in log.rows)


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


@pytest.mark.parametrize("other_J", [5, 20])
def test_run_refuses_a_schedule_solved_for_another_J(other_J):
    # its sampling rate 1/J is not the one the schedule's budgets were audited at
    cfg = private_config(n=2, J=10, K=20, epsilon=0.5, variant="dyn")
    cfg.schedule = build_schedule("dyn", PrivacySpec.resolve(0.5, 1e-4, other_J, 20), 2.0, 4.0, 4.0)
    message = f"^task.J is 10, but the schedule was solved for J = {other_J}$"
    for noise_enabled in (True, False):
        with pytest.raises(ValueError, match=message):
            run(dataclasses.replace(cfg, noise_enabled=noise_enabled))


@pytest.mark.parametrize("field", ["clip", "budget"], ids=["_clip", "_budget"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_run_refuses_schedule_without_finite_positive_noise(field, bad):
    # the schedule refuses such a step when built, so no run can read it
    sched = private_config(n=2, J=10, K=20, epsilon=0.5, variant="dyn").schedule
    values = getattr(sched, field).copy()
    values[7] = bad
    arrays = {"clip": sched.clip, "budget": sched.budget, field: values}
    what = {"clip": "clip bounds", "budget": "step budgets"}[field]
    message = f"^the schedule's {what} must be finite and positive$"
    with pytest.raises(ValueError, match=message):
        NoiseSchedule(**arrays, rho_c=sched.rho_c, rho_mu=sched.rho_mu, privacy=sched.privacy)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(sched, **{field: values})


def test_divergent_step_size_raises():
    cfg = nonprivate_config(n=2, J=10, K=50, gamma=1e308)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteParameter) as ei:
        run(cfg)
    assert 0 <= ei.value.k < 50
