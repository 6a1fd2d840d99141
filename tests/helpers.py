"""Shared builders for engine-level and acceptance tests."""

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from pushdp import cli, engine
from pushdp.accountant import PrivacySpec
from pushdp.engine import INIT_SCALE, PURPOSE_INIT, PURPOSE_NOISE, PURPOSE_SAMPLE, RunConfig
from pushdp.models import EVAL_ROUNDS, Model, Task, synth_dataset
from pushdp.schedule import build_schedule
from pushdp.topology import graph_schedule, validate_column_stochastic


def node_stream(master_seed: int, node: int, purpose: int) -> np.random.Generator:
    """The Philox stream of one node and purpose, built on its own; the oracle
    for the engine's keyed streams."""
    seq = np.random.SeedSequence([master_seed, node, purpose])
    return np.random.Generator(np.random.Philox(seq))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function: 1 / (1 + e) for z >= 0 and e / (1 + e)
    below, with one ``exp`` of e = exp(-|z|) for both branches.  The oracle for
    the fused ``max(e, z >= 0) / (1 + e)`` of ``evaluate`` and the batched gradient."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def equal_but_nan_payloads(got: np.ndarray, want: np.ndarray) -> bool:
    """Bitwise equal, except that a NaN may carry any payload: a run stops at its first
    non-finite iterate, so no NaN's bits reach an output."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def run_from(config, x0):
    """``engine.run`` with node i starting from row i of the (n, d) array ``x0``
    instead of its init-stream draw: it is handed draws whose ``init`` is ``x0``."""
    draws = engine.SeedDraws.of(config)
    draws.init = np.array(x0, dtype=float)  # set before first use, so never drawn
    return engine.run(dataclasses.replace(config, draws=draws))


def _group_row(row: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row 0 of the EVAL_ROUNDS-row product of ``row`` over zero rows: the GEMM that
    ``evaluate`` runs for a group of rounds."""
    stack = np.zeros((EVAL_ROUNDS, len(row)))
    stack[0] = row
    return (stack @ matrix)[0]


def reference_loss_grad(
    model: Model, params: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy loss, flat gradient, and the scores over a batch: the
    logit z (logistic) or logits (mlp) whose sign or argmax is the prediction.

    The two-pass formulas, kept as the oracle for the per-sample gradient: the
    logistic loss is the stable softplus ``log1p(exp(-|z|)) + (max(z, 0) - y z)`` and
    its gradient a second pass through ``sigmoid(z) - y``, which takes exp(-|z|) again;
    the mlp takes ``exp(shifted)`` once for the loss and again for the softmax.
    """
    N = X.shape[0]
    if model.kind == "logistic":
        w, b = model.unflatten(params)
        XT = np.ascontiguousarray(X.T)  # feature-major, as the GEMVs of a batch run along rows
        z = w @ XT + b
        # log(1 + e^z) - y z, stable for either sign of z; the bracket is exact for y in {0, 1}
        loss = float(np.mean(np.log1p(np.exp(-np.abs(z))) + (np.maximum(z, 0.0) - y * z)))
        coeff = sigmoid(z) - y
        grad = np.empty(model.dim)
        grad[: model.d_in] = XT @ coeff / N
        grad[model.d_in] = coeff.mean()
        return loss, grad, z
    W1, b1, W2, b2 = model.unflatten(params)
    hidden = np.tanh(X @ W1.T + b1)
    logits = hidden @ W2.T + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_norm - shifted[np.arange(N), y]))
    dlogits = np.exp(shifted)
    dlogits /= dlogits.sum(axis=1, keepdims=True)
    dlogits[np.arange(N), y] -= 1.0
    dlogits /= N
    dhidden = dlogits @ W2
    dpre = dhidden * (1.0 - hidden**2)
    grad = np.empty(model.dim)
    gW1, gb1, gW2, gb2 = model.unflatten(grad)
    gW1[:] = dpre.T @ X
    gb1[:] = dpre.sum(axis=0)
    gW2[:] = dlogits.T @ hidden
    gb2[:] = dlogits.sum(axis=0)
    return loss, grad, logits


def reference_evaluate(
    model: Model, dataset, params: np.ndarray, grouped: bool = False
) -> tuple[float, np.ndarray, float]:
    """Loss, gradient and accuracy over the pooled dataset by two-pass formulas;
    ``models.evaluate`` must equal it bit for bit, on a vector alone and on a row of a
    stack ``grouped``, which it evaluates in groups of EVAL_ROUNDS rows.

    The logistic model is taken at the signed margin u = (1 - 2y) z: the loss is the
    mean of ``max(u, 0) + log1p(exp(-|u|))``, the gradient a second pass through
    sigmoid(u) (1 - 2y), and a sample a hit where u < 5e-324 (y = 0) or u < 0 (y = 1),
    so that z = 0 predicts class 0.  A vector takes z = X w + b and the gradient
    (sigmoid(u) (1 - 2y)) X over the pooled rows, the bias's the sum of that vector.  A
    ``grouped`` row takes u = theta F as one row of a group's GEMM, where F stacks the
    features over a row of ones and flips the sign of a y = 1 sample's column, and the
    gradient as one row of the GEMM of sigmoid(u) by F^T."""
    X, y = dataset.pooled_features, dataset.pooled_labels
    if model.kind != "logistic":
        loss, grad, logits = reference_loss_grad(model, params, X, y)
        return loss, grad, float(np.mean(logits.argmax(axis=1) == y))
    sign = 1.0 - 2.0 * y
    if grouped:
        F = np.ascontiguousarray(np.vstack([X.T * sign, sign]))  # evaluate's row-major layout
        u = _group_row(params, F)
    else:
        w, b = model.unflatten(params)
        u = (X @ w + b) * sign  # a GEMV on the pooled rows
    loss = float(np.mean(np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))))
    s = sigmoid(u)
    if grouped:
        grad = _group_row(s, F.T) / len(y)
    else:
        coeff = s * sign
        grad = np.append(coeff @ X, coeff.sum()) / len(y)
    return loss, grad, float(np.mean(u < np.where(y == 0, 5e-324, 0.0)))


def per_sample_loss(model: Model, params: np.ndarray, x: np.ndarray, y: int) -> float:
    loss, _, _ = reference_loss_grad(model, params, x[None, :], np.asarray([y]))
    return loss


def per_sample_gradient(model: Model, params: np.ndarray, x: np.ndarray, y: int) -> np.ndarray:
    """Exact flat gradient of the cross-entropy loss at one sample."""
    _, grad, _ = reference_loss_grad(model, params, x[None, :], np.asarray([y]))
    return grad


def full_objective(model: Model, dataset, params: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and gradient averaged over every sample on every node, by ``reference_evaluate``."""
    loss, grad, _ = reference_evaluate(model, dataset, params)
    return loss, grad


def predictions(model: Model, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predicted classes, computed apart from the loss pass ``evaluate`` reads them from."""
    if model.kind == "logistic":
        w, b = model.unflatten(params)
        return (X @ w + b > 0).astype(int)
    W1, b1, W2, b2 = model.unflatten(params)
    logits = np.tanh(X @ W1.T + b1) @ W2.T + b2
    return logits.argmax(axis=1)


def logistic_task(n, J, d_in=6, data_seed=0, separation=3.0) -> Task:
    model = Model(kind="logistic", d_in=d_in)
    data = synth_dataset(data_seed, n, J, d_in=d_in, classes=2, separation=separation)
    return Task(model=model, dataset=data)


def private_config(
    n,
    J,
    K,
    epsilon,
    variant="const",
    delta=1e-4,
    clip0=2.0,
    rho_c=4.0,
    rho_mu=4.0,
    gamma=0.05,
    seed=0,
    graph="exponential",
    d_in=6,
    data_seed=0,
    separation=3.0,
    **kwargs,
) -> RunConfig:
    task = logistic_task(n, J, d_in=d_in, data_seed=data_seed, separation=separation)
    privacy = PrivacySpec.resolve(epsilon, delta, J, K)
    sched = build_schedule(variant, privacy, clip0=clip0, rho_c=rho_c, rho_mu=rho_mu)
    return RunConfig(
        task=task,
        graph=graph_schedule(graph, n),
        schedule=sched,
        gamma=gamma,
        K=K,
        seed=seed,
        **kwargs,
    )


def nonprivate_config(n, J, K, gamma=0.05, seed=0, graph="exponential", d_in=6, data_seed=0, separation=3.0, **kwargs) -> RunConfig:
    task = logistic_task(n, J, d_in=d_in, data_seed=data_seed, separation=separation)
    return RunConfig(
        task=task,
        graph=graph_schedule(graph, n),
        schedule=None,
        gamma=gamma,
        K=K,
        seed=seed,
        **kwargs,
    )


def reference_single_node_sgd(task, gamma, K, seed):
    """Plain-Python SGD consuming the same streams the engine uses."""
    model, data = task.model, task.dataset
    x = node_stream(seed, 0, PURPOSE_INIT).standard_normal(model.dim) * INIT_SCALE
    sampler = node_stream(seed, 0, PURPOSE_SAMPLE)
    traj = [x.copy()]
    for _ in range(K):
        idx = int(sampler.integers(data.J))
        g = per_sample_gradient(model, x, data.features[0, idx], data.labels[0, idx])
        x = x - gamma * g
        traj.append(x.copy())
    return traj


@dataclass
class RoundDetail:
    """One round's per-node arrays: the average iterate it evaluates, each node's
    unclipped and clipped gradient, its half-step, the push-sum weights entering the
    round and the iterates mixed from the half-steps.  ``noise``, the noise each node
    added, is known to ``reference_run`` only."""

    xbar: np.ndarray | None
    grads: np.ndarray
    clipped: np.ndarray
    halves: np.ndarray
    weights: np.ndarray
    mixed: np.ndarray
    noise: np.ndarray | None = None


@contextlib.contextmanager
def recorded_rounds():
    """Yield a list that gains one RoundDetail per round of every ``engine.run``
    inside the block, taken from what the run passes to the names it calls.

    A round calls ``batched_sample_gradients`` (its result is copied as returned, and
    again once the round has clipped it in place: the step writes elsewhere) and
    ``_mix_arrays`` (half-steps and the weights the round leaves in; the mixed iterates
    it writes out).  The weights entering round k are those round k - 1 left, and all
    ones at round 0.  A block observes its rounds only after the last of them, so each
    round's xbar comes from the block's one ``mean_sq_consensus`` call, paired by round
    with the block's details; a block that raises leaves the xbar of its rounds None."""
    details, pending = [], {}
    gradients, mix, consensus = engine.batched_sample_gradients, engine._mix_arrays, engine.mean_sq_consensus

    def record_gradients(*args):
        pending["G"] = gradients(*args)
        pending["grads"] = pending["G"].copy()
        return pending["G"]

    def record_mix(halves, weights, graph, k, out, z):
        mix(halves, weights, graph, k, out, z)
        details.append(RoundDetail(
            xbar=None, grads=pending["grads"], clipped=pending["G"].copy(), halves=halves.copy(),
            weights=pending["weights"] if k else np.ones(len(weights)), mixed=out.copy(),
        ))
        pending["weights"] = weights.copy()

    def record_consensus(Z, xbars, out=None):
        for detail, xbar in zip(details[-len(xbars) :], xbars, strict=True):
            detail.xbar = xbar.copy()
        return consensus(Z, xbars, out=out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "batched_sample_gradients", record_gradients)
        patch.setattr(engine, "_mix_arrays", record_mix)
        patch.setattr(engine, "mean_sq_consensus", record_consensus)
        yield details


def reference_run(config, details: list | None = None):
    """The round loop one node and one stream draw at a time.

    Each node's streams are built on their own by ``node_stream``.  A node
    draws its initial iterate and then, each round, its sample index with a
    single ``integers`` call, takes
    ``per_sample_gradient`` at its own de-biased estimate, clips by
    ``np.linalg.norm`` and draws its own noise vector; the schedule is read
    one step at a time, and every round mixes by a dense matrix product, through
    ``one_peer_matrices`` for a ring or exponential graph.  Its metadata adds the
    schedule's claim when noise was drawn, and the period and the diameter that
    ``reference_window_distances`` gives the union of one period's matrices, unless
    that is 0 or the union is not strongly connected.  ``engine.run`` must
    reproduce it byte for byte.  Round K-1 is evaluated alone, every earlier round
    ``grouped``.  A ``details`` list gains one RoundDetail per round.
    """
    from pushdp.metrics import MetricsLog, mean_sq_consensus, round_records

    model, data, sched = config.task.model, config.task.dataset, config.schedule
    n, d, K, J = config.n, config.d, config.K, data.J
    sample_rngs = [node_stream(config.seed, i, PURPOSE_SAMPLE) for i in range(n)]
    noise_rngs = [node_stream(config.seed, i, PURPOSE_NOISE) for i in range(n)]
    init = (node_stream(config.seed, i, PURPOSE_INIT) for i in range(n))
    X = np.stack([r.standard_normal(d) * INIT_SCALE for r in init])
    w = np.ones(n)
    Z = X.copy()
    measured, schedule = np.empty((K, 5)), np.empty((3, K))  # schedule: C_k, mu_k, sigma_k
    max_weight_drift = max_grad_norm = 0.0
    graph = config.graph
    if graph.kind in ("ring", "exponential"):
        stack = one_peer_matrices(graph.kind, n)
    else:
        stack = np.stack([dense_matrix(graph, k) for k in range(graph.period)])
    dist = reference_window_distances(n, (stack > 0).any(axis=0))
    diameter = int(dist.max()) if (dist >= 0).all() else None
    for k in range(K):
        if sched is None:
            C_k, mu_k, sigma = np.inf, np.nan, 0.0
        else:
            C_k, mu_k = float(sched.clip[k]), float(sched.budget[k])
            sigma = float(sched.sigma[k]) if config.noise_enabled else 0.0
        xbar = X.mean(axis=0)
        loss, grad, acc = reference_evaluate(model, data, xbar, grouped=k < K - 1)
        halves, grads, noises = np.empty((n, d)), np.empty((n, d)), np.zeros((n, d))
        norms, clipped, clipped_grads = [], [], np.empty((n, d))
        for i in range(n):
            idx = int(sample_rngs[i].integers(J))
            g = per_sample_gradient(model, Z[i], data.features[i, idx], data.labels[i, idx])
            grads[i] = g
            norms.append(float(np.linalg.norm(g)))
            clipped.append(norms[i] > C_k)
            if clipped[i]:
                g = g * (C_k / norms[i])
            if sigma > 0:
                noises[i] = noise_rngs[i].standard_normal(d) * sigma
                halves[i] = X[i] - config.gamma * (g + noises[i])
            else:
                halves[i] = X[i] - config.gamma * g
            clipped_grads[i] = g
        max_grad_norm = max(max_grad_norm, max(norms))
        P = stack[k % len(stack)]
        X_next, w_next = P @ halves, P @ w
        Z_next = X_next / w_next[:, None]
        max_weight_drift = max(max_weight_drift, abs(float(w_next.sum()) - n))
        measured[k] = loss, grad @ grad, mean_sq_consensus(Z, xbar), np.mean(clipped), acc
        schedule[:, k] = C_k, mu_k, sigma
        if details is not None:
            details.append(RoundDetail(
                xbar=xbar, grads=grads, clipped=clipped_grads, halves=halves, weights=w,
                mixed=X_next, noise=noises,
            ))
        X, w, Z = X_next, w_next, Z_next
    drew = bool(schedule[2].any())
    meta = {
        "n": n, "d": d, "K": K, "J": J, "gamma": float(config.gamma),
        "seed": config.seed, "graph": graph.kind, "noise_enabled": drew,
        **config.extra_meta,
        **(sched.claim() if drew else {}),
        **({"graph_window": graph.period, "graph_diameter": diameter} if diameter else {}),
        "max_weight_sum_drift": max_weight_drift,
        "max_stoch_grad_norm": max_grad_norm,
    }
    return MetricsLog(meta=meta, rows=round_records(measured, *schedule))


def final_accuracies(logs) -> np.ndarray:
    return np.array([log.rows[-1].accuracy for log in logs])


def final_losses(logs) -> np.ndarray:
    return np.array([log.rows[-1].loss for log in logs])


def one_peer_matrices(kind: str, n: int) -> np.ndarray:
    """The dense ``(period, n, n)`` stack of a ring or exponential schedule, built
    from its definition: at round k node i keeps half its mass and sends half to
    node (i + h_k) mod n, with h_k = 1 on the ring and 2^(k mod m) on the
    exponential graph, where m = floor(log2(n - 1)) + 1 (one below three nodes).
    The oracle for the ``peers`` form ``graph_schedule`` keeps."""
    period = max(1, (n - 1).bit_length()) if kind == "exponential" else 1
    stack = np.zeros((period, n, n))
    for k in range(period):
        hop = 2**k if kind == "exponential" else 1
        for i in range(n):
            stack[k, i, i] += 0.5
            stack[k, (i + hop) % n, i] += 0.5
    return stack


def dense_matrix(graph, k: int) -> np.ndarray:
    """The dense P_k of a schedule, as P_k @ I; for a dense schedule the values of its
    slice ``weights[k % period]``."""
    return graph.mix(k, np.eye(graph.n))


def validate_each_slice(weights) -> None:
    """``validate_column_stochastic`` on each slice of a ``(period, n, n)`` stack in
    turn, as ``GraphSchedule`` checks its stack slice by slice on construction."""
    for matrix in np.asarray(weights, dtype=float):
        validate_column_stochastic(matrix)


@contextlib.contextmanager
def cli_resolving_each_leg():
    """``pushdp.cli`` as if nothing were shared: every (point, seed) pair of a
    command's grid builds its own dataset, graph, connectivity check and leg (privacy
    solve included), and its run makes its own draws, point by point and each leg
    resolved just before it runs.  The reference for the setting a grid rebuilds only
    when an entry it reads changes, the leg it resolves once per point, the draws its
    legs at one seed share and the seed-by-seed order it runs them in."""

    def grid_alone(configs, each):
        results = []
        for cfg in configs:
            results.append([])
            for seed in range(cfg.seed, cfg.seed + cfg.repeat):
                alone = dataclasses.replace(cfg, seed=seed)
                results[-1].append(each(cli._leg(alone, cli._setting(alone))))
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_grid", grid_alone)
        yield


def reference_window_distances(n: int, adjacency: np.ndarray) -> np.ndarray:
    """All-pairs BFS hop counts on a directed adjacency matrix (-1 if unreachable).

    One plain BFS per source over explicit out-neighbour lists; the oracle for
    ``topology._saturation``, whose results are its column-wise reachability and max.
    """
    dist = np.full((n, n), -1, dtype=int)
    out_neighbors = [np.flatnonzero(adjacency[:, j]) for j in range(n)]
    for source in range(n):
        dist[source, source] = 0
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            next_frontier = []
            for j in frontier:
                for i in out_neighbors[j]:
                    if dist[source, i] < 0:
                        dist[source, i] = hops
                        next_frontier.append(int(i))
            frontier = next_frontier
    return dist
