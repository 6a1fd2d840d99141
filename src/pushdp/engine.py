"""Decentralized DP-SGD round loop with push-sum weight correction.

Each round, every node samples one local data point, evaluates the gradient
at its de-biased estimate z_i = x_i / w_i, clips it to the scheduled bound,
perturbs it with scheduled Gaussian noise, takes the step on its raw iterate
x_i, and then all nodes mix both x and the push-sum weight w through the
round's column-stochastic matrix:

    x_i^{k+1/2} = x_i^k - gamma * (clip(g_i^k) + N_i^k)
    x_i^{k+1}   = sum_j P_ij^k x_j^{k+1/2}
    w_i^{k+1}   = sum_j P_ij^k w_j^k

Column stochasticity conserves the sums of x and w, so the average iterate
follows the noisy mean gradient exactly and the weights w recover the bias a
directed graph would otherwise inject into z.

``run`` is the only round path.  Its node phase is vectorized: one batched
kernel computes every node's gradient at its own z_i, and clipping, noise and
the half-step act on all rows at once; ``_mix_arrays`` then mixes every row.
Each dot product reproduces its single-node counterpart bit for bit, so the
result equals a per-node loop exactly.  The schedule is read as its three
arrays, checked once before round 0.

Randomness is drawn from counter-based Philox streams keyed by
(master seed, node index, purpose), one purpose for parameter init, one for
data sampling, and one for noise.  Each stream is read in blocks of
ROUND_BLOCK rounds; a block draw yields the same values as the single draws
it replaces.  Results are therefore bitwise reproducible for a given seed,
and ablating noise never shifts the sampled data sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import MetricsLog, RoundDetail, RoundStats, mean_sq_consensus
from .models import Task, batched_sample_gradients, evaluate
from .schedule import NoiseSchedule
from .topology import GraphSchedule, validate_column_stochastic

PURPOSE_INIT = 0
PURPOSE_SAMPLE = 1
PURPOSE_NOISE = 2

# Push-sum weights this small mean the matrix schedule starves a node.
WEIGHT_FLOOR = 1e-300

# Rounds of sample indices and noise drawn per stream call; bounds the noise
# held at once to n * ROUND_BLOCK * d floats.
ROUND_BLOCK = 64

# Standard deviation of the default per-node Gaussian initialization.
INIT_SCALE = 0.5


class DegenerateWeight(ArithmeticError):
    """A push-sum weight collapsed to zero; the mixing schedule is unusable."""


class NonFiniteParameter(ArithmeticError):
    """An iterate overflowed or went NaN (step size likely too large)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"non-finite parameter after round {k}; try a smaller step size")


def node_stream(master_seed: int, node: int, purpose: int) -> np.random.Generator:
    """Independent Philox stream for one node and purpose."""
    seq = np.random.SeedSequence([master_seed, node, purpose])
    return np.random.Generator(np.random.Philox(seq))


def _mix_arrays(
    halves: np.ndarray, weights: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One gossip exchange: mixed iterates, mixed weights, de-biased estimates."""
    x_next = P @ halves
    w_next = P @ weights
    if (w_next <= WEIGHT_FLOOR).any():
        node = int(np.argmax(w_next <= WEIGHT_FLOOR))
        raise DegenerateWeight(f"push-sum weight underflowed at node {node}")
    return x_next, w_next, x_next / w_next[:, None]


@dataclass
class RunConfig:
    """Everything one deterministic run needs.

    ``schedule`` is a NoiseSchedule from either builder; None selects the
    non-private path (no clipping, no noise).  ``noise_enabled = False`` keeps
    the clipping bound of the schedule but injects no noise, which isolates
    the two privacy mechanisms in ablations.  ``x0`` overrides the default
    per-node initialization, Normal(0, INIT_SCALE^2) (shape (n, d)).
    """

    task: Task
    graph: GraphSchedule
    schedule: NoiseSchedule | None
    gamma: float
    K: int
    seed: int
    noise_enabled: bool = True
    x0: np.ndarray | None = None
    capture_detail: bool = False
    extra_meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.task.model.dim


def _initial_iterates(config: RunConfig) -> np.ndarray:
    if config.x0 is not None:
        x0 = np.array(config.x0, dtype=float)
        if x0.shape != (config.n, config.d):
            raise ValueError(f"x0 must have shape ({config.n}, {config.d})")
        return x0
    streams = (node_stream(config.seed, i, PURPOSE_INIT) for i in range(config.n))
    return np.stack([r.standard_normal(config.d) * INIT_SCALE for r in streams])


def _schedule_arrays(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round (C_k, mu_k, sigma_k), checked once so privacy fails closed."""
    K, sched = config.K, config.schedule
    if sched is None:
        return np.full(K, math.inf), np.full(K, math.nan), np.zeros(K)
    if sched.K < K:
        raise ValueError("schedule is shorter than the run")
    clip, budget, sigma = sched.clip[:K], sched.budget[:K], sched.sigma[:K]
    if not (np.isfinite(clip) & (clip > 0)).all():
        raise ValueError("the schedule's clip bounds must be finite and positive")
    if not config.noise_enabled:
        return clip, budget, np.zeros(K)
    if not (np.isfinite(sigma) & (sigma > 0)).all():
        raise ValueError("the schedule's noise levels must be finite and positive")
    return clip, budget, sigma


def _round_draws(config: RunConfig, noisy: bool):
    """Per round: each node's sample index, and its standard-normal noise row
    when ``noisy`` (else None), drawn ROUND_BLOCK rounds at a time."""
    n, d, K, J = config.n, config.d, config.K, config.task.dataset.J
    samplers = [node_stream(config.seed, i, PURPOSE_SAMPLE) for i in range(n)]
    noisers = [node_stream(config.seed, i, PURPOSE_NOISE) for i in range(n)]
    for k0 in range(0, K, ROUND_BLOCK):
        B = min(ROUND_BLOCK, K - k0)
        idx = np.stack([r.integers(J, size=B) for r in samplers], axis=1)
        if noisy:
            noise = np.stack([r.standard_normal((B, d)) for r in noisers], axis=1)
        for t in range(B):
            yield idx[t], noise[t] if noisy else None


def run(config: RunConfig) -> MetricsLog:
    """Execute K rounds and return the full metrics log.

    Row k is evaluated at the average iterate entering round k, while its
    clip rate refers to the gradients sampled during round k.  The log's
    metadata records the worst push-sum weight-sum drift and the largest
    unclipped stochastic gradient norm seen, both useful sanity checks.
    """
    model, data = config.task.model, config.task.dataset
    n, d, K, J = config.n, config.d, config.K, config.task.dataset.J
    if data.n != n:
        raise ValueError(f"dataset has {data.n} shards but the graph has {n} nodes")
    if config.gamma < 0:
        raise ValueError("step size must be nonnegative")
    for k in range(config.graph.period):
        validate_column_stochastic(config.graph.matrix_at(k))
    clip, budget, sigma = _schedule_arrays(config)

    X = _initial_iterates(config)
    w = np.ones(n)
    Z = X.copy()
    nodes = np.arange(n)
    rows: list[RoundStats] = []
    details: list[RoundDetail] = [] if config.capture_detail else None
    max_weight_drift = 0.0
    max_grad_norm = 0.0

    for k, (idx, std_noise) in enumerate(_round_draws(config, bool(sigma.any()))):
        C_k = float(clip[k])
        xbar = X.mean(axis=0)
        loss, grad, acc = evaluate(model, data, xbar)

        G = batched_sample_gradients(model, Z, data.features[nodes, idx], data.labels[nodes, idx])
        norms = np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])  # == np.linalg.norm per row
        clipped = norms > C_k
        G[clipped] *= (C_k / norms[clipped])[:, None]
        noise = None if std_noise is None else std_noise * float(sigma[k])
        halves = X - config.gamma * (G if noise is None else G + noise)
        max_grad_norm = max(max_grad_norm, float(norms.max()))

        P = config.graph.matrix_at(k).weights
        X_next, w_next, Z_next = _mix_arrays(halves, w, P)
        if not np.isfinite(X_next).all():
            raise NonFiniteParameter(k)
        max_weight_drift = max(max_weight_drift, abs(float(w_next.sum()) - n))

        rows.append(
            RoundStats(
                k=k,
                loss=loss,
                grad_norm_sq=float(grad @ grad),
                consensus_err=mean_sq_consensus(Z, xbar),
                clip_rate=float(clipped.mean()),
                clip_bound=C_k,
                step_budget=float(budget[k]),
                noise_std=float(sigma[k]),
                accuracy=acc,
            )
        )
        if details is not None:
            details.append(
                RoundDetail(
                    xbar=xbar,
                    xbar_next=X_next.mean(axis=0),
                    halves_mean=halves.mean(axis=0),
                    mean_clipped_grad=G.mean(axis=0),
                    mean_noise=np.zeros(d) if noise is None else noise.mean(axis=0),
                    weight_sum=float(w_next.sum()),
                    stoch_grad_norms=norms,
                )
            )
        X, w, Z = X_next, w_next, Z_next

    meta = {
        "n": n,
        "d": d,
        "K": K,
        "J": J,
        "gamma": repr(float(config.gamma)),
        "seed": config.seed,
        "graph": config.graph.kind,
        "noise_enabled": config.noise_enabled,
    }
    meta.update(config.extra_meta)
    meta["max_weight_sum_drift"] = repr(max_weight_drift)
    meta["max_stoch_grad_norm"] = repr(max_grad_norm)
    return MetricsLog(meta=meta, rows=rows, detail=details)
