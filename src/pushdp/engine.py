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
the half-step act on all rows at once; ``_mix_arrays`` then mixes every row by the
graph's ``mix``, a gather of each node's one peer on ring and exponential graphs.
Each dot product reproduces its single-node counterpart bit for bit, so the
result equals a per-node loop exactly.  The schedule is read as its three
arrays, checked once before round 0.

Randomness comes from one counter-based Philox stream per node and purpose (init,
sampling, noise), keyed by ``SeedSequence([seed, node, purpose])``; ``stream_keys``
derives all keys in one vectorized pass.  One generator per purpose serves all
nodes: set to a fresh-state template keyed to node i (later, node i's saved state),
it writes node i's draw in place into its row.  Key, counter and buffer are the whole
Philox state, so this equals separate per-node generators.  Streams are read in
blocks of ROUND_BLOCK rounds, equal to single draws (sample indices decoded from raw
words by numpy's own rule), and a noise-free run builds no noise stream.  Runs are
bitwise reproducible per seed, and ablating noise never shifts the sampled data.

What no leg at a seed changes, its keys, initial iterates and all K rounds of sample
indices, is one ``SeedDraws``: drawn on first use inside ``run``, then held read-only.
The index table is (K, n) in the smallest unsigned dtype that holds J - 1 (K * n bytes
up to J = 256).  A grid hands one to every leg at its seed for one command; ``run``
given none makes its own.  Noise is drawn per leg, block by block, so a run holds at
most n * ROUND_BLOCK * d noise floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import MetricsLog, mean_sq_consensus, round_records
from .models import Task, batched_sample_gradients, evaluate
from .schedule import NoiseSchedule
from .topology import GraphSchedule

PURPOSE_INIT = 0
PURPOSE_SAMPLE = 1
PURPOSE_NOISE = 2

# Push-sum weights this small mean the matrix schedule starves a node.
WEIGHT_FLOOR = 1e-300

# Rounds of sample indices and noise drawn per stream call; bounds the noise
# held at once to n * ROUND_BLOCK * d floats.
ROUND_BLOCK = 64

# Standard deviation of the per-node Gaussian initialization.
INIT_SCALE = 0.5


class DegenerateWeight(ArithmeticError):
    """A push-sum weight collapsed to zero; the mixing schedule is unusable."""


class NonFiniteParameter(ArithmeticError):
    """An iterate overflowed or went NaN (step size likely too large)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"non-finite parameter after round {k}; try a smaller step size")


# numpy's SeedSequence: pool size, hashmix constants (A mixes, B outputs), mix multipliers
_POOL, _MASK32 = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; each call hashes with the next constant of its sequence."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value *= const
        return value ^ value >> 16

    return hashmix


def stream_keys(seed: int, n: int) -> np.ndarray:
    """Philox key of every stream, shape (3, n, 2) uint64: entry [p, i] equals
    ``SeedSequence([seed, i, p]).generate_state(2, np.uint64)``.

    SeedSequence's pool mixing on uint32 arrays, one lane per (purpose, node):
    its hash constants advance alike in every lane, so one pass serves all.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    m = len(words)
    # entropy words [seed words..., node, purpose], zero-padded to the pool size
    entropy = np.zeros((max(m + 2, _POOL), 3, n), dtype=np.uint32)
    entropy[:m] = np.array(words)[:, None, None]
    entropy[m], entropy[m + 1] = np.arange(n), np.arange(3)[:, None]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    # mix each pool word into every other one, then each entropy word past the pool into all
    for src, word in enumerate(entropy):
        for dst in range(_POOL):
            if dst != src:
                mixed = pool[dst] * _MIX_L - hashmix(pool[src] if src < _POOL else word) * _MIX_R
                pool[dst] = mixed ^ mixed >> 16
    out = _hasher(_INIT_B, _MULT_B)  # four uint32 words, read as two little-endian uint64
    key_words = np.stack([out(word) for word in pool], axis=-1).astype("<u4")
    return key_words.view("<u8").astype(np.uint64)


class _Streams:
    """The per-node streams of one purpose through one Philox generator, set for node i
    to one fresh state (the setter copies it) keyed to i, then to the state i saved."""

    def __init__(self, keys: np.ndarray):
        self._gen = np.random.Generator(np.random.Philox(key=keys[0]))
        self._keys, self._states = keys, [self._gen.bit_generator.state] * len(keys)

    def _set(self, states: list, i: int) -> None:
        states[i]["state"]["key"] = self._keys[i]  # re-keys the fresh dict; a saved one has it
        self._gen.bit_generator.state = states[i]

    def normals(self, out: np.ndarray, last: bool = False) -> np.ndarray:
        """Fill and return ``out``, row i with node i's ``standard_normal(out[i].shape)``."""
        bits, before, saved = self._gen.bit_generator, self._states, []
        for i, row in enumerate(out):
            self._set(before, i)
            self._gen.standard_normal(out=row)
            if not last:
                saved.append(bits.state)
        self._states = saved
        return out

    def indices(self, J: int, B: int, last: bool = False) -> np.ndarray:
        """Each node's ``integers(J, size=B)``, shape (n, B), by numpy's Lemire rule on
        raw words: each is two uint32 u, low half first, mapped to ``u * J >> 32``.  A
        node with a u numpy rejects (every u once J > 2**32) or a spare half word is
        redrawn by ``integers`` from its state before the block.  An odd B leaves a
        high half unread, so only the last block may be odd."""
        bits, before, saved, m = self._gen.bit_generator, self._states, [], (B + 1) // 2
        words = np.empty((len(self._keys), m), "<u8")
        for i, row in enumerate(words):
            self._set(before, i)
            row[:] = bits.random_raw(m)
            if not last:
                saved.append(bits.state)
        self._states = saved
        scaled = words.view("<u4")[:, :B] * np.uint64(J)  # u, low half first
        idx = (scaled >> 32).astype(np.int64)
        redo = ((scaled & _MASK32) < (1 << 32) % J).any(axis=1)  # numpy's rejection test
        for i in np.flatnonzero(redo | [state["has_uint32"] == 1 for state in before]):
            self._set(before, i)
            idx[i] = self._gen.integers(J, size=B)
            if not last:
                saved[i] = bits.state
        return idx


def _mix_arrays(
    halves: np.ndarray, weights: np.ndarray, graph: GraphSchedule, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round k's gossip exchange: mixed iterates, mixed weights, de-biased estimates."""
    x_next = graph.mix(k, halves)
    w_next = graph.mix(k, weights)
    if (w_next <= WEIGHT_FLOOR).any():
        node = int(np.argmax(w_next <= WEIGHT_FLOOR))
        raise DegenerateWeight(f"push-sum weight underflowed at node {node}")
    return x_next, w_next, x_next / w_next[:, None]


@dataclass
class RunConfig:
    """Everything one deterministic run needs.

    ``schedule`` is a NoiseSchedule from ``build_schedule``; None selects the
    non-private path (no clipping, no noise).  ``noise_enabled = False`` keeps
    the clipping bound of the schedule but injects no noise, which isolates
    the two privacy mechanisms in ablations.
    """

    task: Task
    graph: GraphSchedule
    schedule: NoiseSchedule | None
    gamma: float
    K: int
    seed: int
    noise_enabled: bool = True
    extra_meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.task.model.dim


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


@dataclass
class SeedDraws:
    """The draws every leg at one seed shares: its stream keys, each node's initial
    iterate, and each node's sample index in all K rounds.  Each is drawn on first use
    and then held read-only, so the legs of one grid at one seed read them once; a run
    handed none makes its own.  The index table is (K, n) in the smallest unsigned
    dtype that holds J - 1, filled ROUND_BLOCK rounds at a time.  Draws are equal when
    made for the same (seed, n, K, J, d)."""

    seed: int
    n: int
    K: int
    J: int
    d: int

    @classmethod
    def of(cls, config: RunConfig) -> SeedDraws:
        return cls(config.seed, config.n, config.K, config.task.dataset.J, config.d)

    @functools.cached_property
    def keys(self) -> np.ndarray:
        return stream_keys(self.seed, self.n)

    @functools.cached_property
    def init(self) -> np.ndarray:
        init = _Streams(self.keys[PURPOSE_INIT]).normals(np.empty((self.n, self.d)), last=True)
        init *= INIT_SCALE
        init.flags.writeable = False
        return init

    @functools.cached_property
    def indices(self) -> np.ndarray:
        K, J = self.K, self.J
        table = np.empty((K, self.n), np.min_scalar_type(J - 1))
        samplers = _Streams(self.keys[PURPOSE_SAMPLE])
        for k0 in range(0, K, ROUND_BLOCK):
            B = min(ROUND_BLOCK, K - k0)
            table[k0 : k0 + B] = samplers.indices(J, B, last=k0 + B == K).T
        table.flags.writeable = False
        return table


def _noise_rows(keys: np.ndarray, d: int, K: int):
    """Each round's (n, d) standard-normal noise, one row per node, drawn
    ROUND_BLOCK rounds at a time."""
    noisers = _Streams(keys)
    for k0 in range(0, K, ROUND_BLOCK):
        B = min(ROUND_BLOCK, K - k0)
        yield from noisers.normals(np.empty((len(keys), B, d)), last=k0 + B == K).swapaxes(0, 1)


def run(config: RunConfig, every_round: bool = True, draws: SeedDraws | None = None) -> MetricsLog:
    """Execute K rounds and return the full metrics log.

    Row k is evaluated at the average iterate entering round k, while its
    clip rate refers to the gradients sampled during round k.  With
    ``every_round=False`` only row K-1 is: the loss, grad_norm_sq and accuracy
    of earlier rows are NaN, and as evaluation only observes, every other cell
    and the metadata are those of the every-round log.  The log's
    metadata records the worst push-sum weight-sum drift and the largest
    unclipped stochastic gradient norm seen, both useful sanity checks.
    ``draws`` are the config's own ``SeedDraws``, shared with other legs at its seed;
    by default the run makes its own.
    """
    model, data = config.task.model, config.task.dataset
    n, d, K, J = config.n, config.d, config.K, config.task.dataset.J
    if data.n != n:
        raise ValueError(f"dataset has {data.n} shards but the graph has {n} nodes")
    if config.gamma < 0:
        raise ValueError("step size must be nonnegative")
    clip, budget, sigma = _schedule_arrays(config)
    own = SeedDraws.of(config)
    if draws is None:
        draws = own
    elif draws != own:
        raise ValueError(f"the run needs {own}, not {draws}")

    X = draws.init
    w = np.ones(n)
    Z = X.copy()
    nodes = np.arange(n)
    measured = np.empty((K, 5))  # per round: loss, grad_norm_sq, consensus_err, clip_rate, accuracy
    max_weight_drift = 0.0
    max_grad_norm = 0.0
    unevaluated = math.nan, np.full(d, math.nan), math.nan

    with np.errstate(over="ignore", invalid="ignore"):  # divergence fails by NonFiniteParameter
        noises = _noise_rows(draws.keys[PURPOSE_NOISE], d, K) if sigma.any() else None
        for k, (idx, std_noise) in enumerate(zip(draws.indices, noises or itertools.repeat(None))):
            C_k = float(clip[k])
            xbar = X.sum(axis=0) / n  # == X.mean(axis=0)
            evaluated = every_round or k == K - 1
            loss, grad, acc = evaluate(model, data, xbar) if evaluated else unevaluated

            Xs, ys = data.features[nodes, idx], data.labels[nodes, idx]
            G = batched_sample_gradients(model, Z, Xs, ys)
            norms = np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])  # == np.linalg.norm per row
            clipped = norms > C_k
            G *= np.divide(C_k, norms, out=np.ones(n), where=clipped)[:, None]  # x * 1.0 == x
            noise = None if std_noise is None else std_noise * float(sigma[k])
            halves = X - config.gamma * (G if noise is None else G + noise)
            max_grad_norm = max(max_grad_norm, float(norms.max()))

            X_next, w_next, Z_next = _mix_arrays(halves, w, config.graph, k)
            if not np.isfinite(X_next).all():
                raise NonFiniteParameter(k)
            max_weight_drift = max(max_weight_drift, abs(float(w_next.sum()) - n))

            rate = np.count_nonzero(clipped) / n
            measured[k] = loss, grad @ grad, mean_sq_consensus(Z, xbar), rate, acc
            X, w, Z = X_next, w_next, Z_next

    meta = {
        "n": n, "d": d, "K": K, "J": J, "gamma": float(config.gamma), "seed": config.seed,
        "graph": config.graph.kind, "noise_enabled": config.noise_enabled, **config.extra_meta,
        "max_weight_sum_drift": max_weight_drift, "max_stoch_grad_norm": max_grad_norm,
    }
    return MetricsLog(meta=meta, rows=round_records(measured, clip, budget, sigma))
