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

``run``, the only round path, runs blocks of ROUND_BLOCK rounds, each in four phases:

- draw (``_block_draws``): its (B, n) samples in one ``take`` and its noise times sigma_k.
- weights (``_block_weights``): the push-sum weights of all its rounds, which never read
  the iterates, and how many rounds run before one reaches WEIGHT_FLOOR.  Under one-peer
  push they stay 1.0 (``unit_weights``), and z_i is the iterate.
- step, one loop in ``run``: per round, each node's gradient at its z_i in one batched
  kernel, its norm, clip, noise and half-step, and ``_mix_arrays``, which writes
  ``graph.mix`` into row b + 1 of the iterates, divided by the weights into z_i.
- observe, in ``run``: one ``isfinite`` raises ``NonFiniteParameter`` at the first
  non-finite round, else a starved round raises ``DegenerateWeight`` (the earlier, as a
  per-round check would), and ``evaluate`` takes the average iterates (``models.evaluate``).

Every dot product and sum reproduces its single-node counterpart bit for bit, so the
result equals a per-node, per-round loop exactly.

Randomness comes from one counter-based Philox stream per node and purpose (init,
sampling, noise), keyed by ``SeedSequence([seed, node, purpose])``; ``stream_keys``
derives all keys in one vectorized pass.  One generator per purpose serves all nodes:
set to a fresh-state template of plain ints keyed to node i (later, node i's saved
state), it writes node i's draws in place.  Key, counter and buffer are the whole Philox
state, so this equals separate per-node generators, read a block at a time (sample
indices decoded from raw words by numpy's own rule).  A noise-free run builds no noise
stream, and ablating noise never shifts the sampled data.

What no leg at a seed changes, its keys, initial iterates and all K rounds of sample
indices, is one ``SeedDraws``, drawn on first use and then held read-only (the index
table in K * n bytes up to J = 256).  A leg carries it as ``RunConfig.draws``, shared
with the other legs at its seed; a config with none reads its indices block by block.
"""

from __future__ import annotations

import functools
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

# Rounds drawn per stream call and run per block, whose buffers every block reuses:
# n * ROUND_BLOCK * (3d + d_in) floats, (2d + d_in) on unit weights.
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
    to one fresh state keyed to i, then to the state i saved.  The setter copies the fresh
    state, the generator's own with its arrays as plain ints, which it reads faster."""

    def __init__(self, keys: np.ndarray):
        self._gen = np.random.Generator(np.random.Philox(key=keys[0]))
        fresh = self._gen.bit_generator.state
        fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._keys, self._states = keys.tolist(), [fresh] * len(keys)

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


def _mix_arrays(halves: np.ndarray, weights: np.ndarray, graph: GraphSchedule, k: int,
                out: np.ndarray, z: np.ndarray | None):
    """Round k's half-steps mixed through P_k into ``out``, de-biased by ``weights`` into ``z`` unless None."""
    mixed = graph.mix(k, halves, out=out)
    return mixed if z is None else np.divide(mixed, weights[:, None], out=z)


@dataclass
class RunConfig:
    """Everything one deterministic run needs.

    ``schedule`` is a NoiseSchedule from ``build_schedule`` solved for the dataset's ``task.J`` and
    this run's K, which must equal its ``privacy.K``, as its claim is its spend over all its steps
    (``run`` refuses another J or K); None selects the non-private path (no clipping, no noise).
    ``noise_enabled = False`` keeps the clipping bound of the schedule but injects no noise, which
    isolates the two privacy mechanisms in ablations.  ``every_round = False`` evaluates only round
    K-1, which every run evaluates alone (see ``run``).  ``draws`` are the config's own ``SeedDraws``,
    shared with other legs at its seed; by default the run makes its own.  ``extra_meta`` holds only the
    caller's own metadata (the CLI's ``variant``, ``gamma_preset``), not the claim and connectivity ``run`` writes.
    """

    task: Task
    graph: GraphSchedule
    schedule: NoiseSchedule | None
    gamma: float
    K: int
    seed: int
    noise_enabled: bool = True
    extra_meta: dict = field(default_factory=dict)
    every_round: bool = True
    draws: SeedDraws | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.task.model.dim


def _schedule_arrays(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round (C_k, mu_k, sigma_k) of a NoiseSchedule checked against the run's K and J; sigma_k = 0 with noise off."""
    K, sched = config.K, config.schedule
    if sched is None:
        return np.full(K, math.inf), np.full(K, math.nan), np.zeros(K)
    if sched.privacy.K != K:  # its claim is for K steps: a shorter run would print a spend it never made
        raise ValueError(f"run.K is {K}, but the schedule was solved for K = {sched.privacy.K}")
    if sched.privacy.J != config.task.dataset.J:  # its sampling rate 1/J is the one it was audited for
        raise ValueError(f"task.J is {config.task.dataset.J}, but the schedule was solved for J = {sched.privacy.J}")
    return sched.clip, sched.budget, sched.sigma if config.noise_enabled else np.zeros(K)


@dataclass
class SeedDraws:
    """The draws every leg at one seed shares: its stream keys, each node's initial
    iterate, and each node's sample index in all K rounds.  Each is drawn on first use
    and then held read-only, so the legs of one grid at one seed read them once.  The
    index table is (K, n) in the smallest unsigned dtype that holds J - 1, filled from
    ``index_blocks``.  Draws are equal when made for the same (seed, n, K, J, d)."""

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

    def index_blocks(self):
        """Each block's (B, n) sample indices, drawn from the streams."""
        samplers = _Streams(self.keys[PURPOSE_SAMPLE])
        return (samplers.indices(self.J, B, last).T for _, B, last in _blocks(self.K))

    @functools.cached_property
    def indices(self) -> np.ndarray:
        table = np.empty((self.K, self.n), np.min_scalar_type(self.J - 1))
        for (k0, B, _), block in zip(_blocks(self.K), self.index_blocks()):
            table[k0 : k0 + B] = block
        table.flags.writeable = False
        return table


def _blocks(K: int):
    """(first round, rounds, whether last) of each ROUND_BLOCK-round block of K rounds."""
    return [(k0, min(ROUND_BLOCK, K - k0), k0 + ROUND_BLOCK >= K) for k0 in range(0, K, ROUND_BLOCK)]


def _block_draws(config: RunConfig, draws: SeedDraws, sigma: np.ndarray):
    """Each block's samples (B, n, d_in), labels (B, n) and noise (n, B, d), [i, b] node i's in round b, or
    None if sigma is 0 throughout.  A lone run (``config.draws`` None) builds no (K, n) index table."""
    data, blocks, rows = config.task.dataset, _blocks(config.K), min(ROUND_BLOCK, config.K)
    index_blocks = draws.index_blocks() if config.draws is None else (draws.indices[k0 : k0 + B] for k0, B, _ in blocks)
    noisers = _Streams(draws.keys[PURPOSE_NOISE]) if sigma.any() else None
    samples, noise = np.empty((rows, config.n, data.d_in)), None if noisers is None else np.empty((config.n, rows, config.d))
    offsets = np.arange(config.n) * data.J  # node i's shard starts at row i * J of the pooled data
    for (k0, B, last), idx in zip(blocks, index_blocks):
        at = idx + offsets  # the samples' rows in the pooled data; mode "clip" takes unbuffered: in range
        Xs, ys = data.pooled_features.take(at, axis=0, out=samples[:B], mode="clip"), data.pooled_labels.take(at)
        block = None if noisers is None else noisers.normals(noise[:, :B], last)
        yield Xs, ys, block if block is None else np.multiply(block, sigma[k0 : k0 + B, None], out=block)


def _block_weights(graph: GraphSchedule, K: int):
    """Each block's push-sum weights (B + 1, n), row b + 1 those its round b leaves, its rounds before the
    first that reaches WEIGHT_FLOOR, and the worst weight-sum drift so far; on unit weights no mix at all."""
    weights, drift, starved = np.ones((min(K, ROUND_BLOCK) + 1, graph.n)), 0.0, []
    for k0, B, _ in _blocks(K):
        if not graph.unit_weights:
            for b in range(B):
                graph.mix(k0 + b, weights[b], out=weights[b + 1])
            starved = (weights[1 : B + 1] <= WEIGHT_FLOOR).any(axis=1).tolist()
            drift = max(drift, float(np.abs(weights[1 : B + 1].sum(axis=1) - graph.n).max()))
        yield weights, starved.index(True) if True in starved else B, drift  # that round raises DegenerateWeight
        weights[0] = weights[B]  # what the next block enters with


def run(config: RunConfig) -> MetricsLog:
    """Execute K rounds and return the full metrics log.

    Row k is evaluated at the average iterate entering round k (a block's rounds before K-1 in one
    ``evaluate`` call, round K-1 alone), while its clip rate refers to the gradients sampled during
    round k.  With ``config.every_round`` False only row K-1 is: the loss, grad_norm_sq and accuracy
    of earlier rows are NaN, and as evaluation only observes, every other cell and the metadata are
    those of the every-round log.  The metadata records whether the run drew noise, ``config.extra_meta``, the
    schedule's ``claim()`` only if the run drew its noise, the graph's ``graph_window`` (period) and
    ``graph_diameter`` unless that is 0 (one node), and as sanity checks the worst push-sum weight-sum
    drift and the largest unclipped stochastic gradient norm seen.  ``config.draws`` must be made for
    the config's (seed, n, K, J, d); a schedule solved for another K or J, K < 1 or a step size that is
    negative or not finite raises.
    """
    model, data = config.task.model, config.task.dataset
    n, d, K, J = config.n, config.d, config.K, config.task.dataset.J
    if data.n != n:
        raise ValueError(f"dataset has {data.n} shards but the graph has {n} nodes")
    if not 0 <= config.gamma < math.inf:  # NaN too
        raise ValueError(f"step size must be finite and nonnegative, got {config.gamma}")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    clip, budget, sigma = _schedule_arrays(config)
    draws = config.draws or SeedDraws.of(config)
    if draws != SeedDraws.of(config):  # made for another seed or shape
        raise ValueError(f"the run needs {SeedDraws.of(config)}, not {draws}")

    graph, gamma, every_round, unit = config.graph, config.gamma, config.every_round, config.graph.unit_weights
    rows = min(K, ROUND_BLOCK) + 1  # every block reuses the buffers below; row b enters its round b
    iterates = np.empty((rows, n, d))
    Zs = iterates if unit else np.empty((rows, n, d))  # on unit weights z_i is the iterate
    norms, sample_grads, halves, scale = np.empty((rows - 1, n)), np.empty((n, d)), np.empty((n, d)), np.empty(n)
    iterates[0] = Zs[0] = draws.init
    measured = np.full((K, 5), math.nan)  # loss, grad_norm_sq, consensus_err, clip_rate, accuracy
    max_grad_norm = 0.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # divergence fails by NonFiniteParameter
        phases = zip(_blocks(K), _block_draws(config, draws, sigma), _block_weights(graph, K))
        for (k0, B, _), (Xs, ys, noise), (weights, ran, max_weight_drift) in phases:
            for b, bound, norm in zip(range(ran), clip[k0 : k0 + ran].tolist(), norms):
                G = batched_sample_gradients(model, Zs[b], Xs[b], ys[b], sample_grads)
                np.sqrt(np.vecdot(G, G, out=norm), out=norm)  # == np.linalg.norm per row
                G *= np.minimum(np.divide(bound, norm, out=scale), 1.0, out=scale)[:, None]  # x * 1.0 == x
                step = G if noise is None else np.add(G, noise[:, b], out=halves)
                np.subtract(iterates[b], np.multiply(step, gamma, out=halves), out=halves)
                _mix_arrays(halves, weights[b + 1], graph, k0 + b, iterates[b + 1], None if unit else Zs[b + 1])
            finite = np.isfinite(iterates[1 : ran + 1]).all(axis=(1, 2))  # before the starved round
            if not finite.all():
                raise NonFiniteParameter(k0 + int(np.argmin(finite)))
            if ran < B:
                node = int(np.argmax(weights[ran + 1] <= WEIGHT_FLOOR))
                raise DegenerateWeight(f"push-sum weight underflowed at node {node}")
            xbars = np.einsum("bij->bj", iterates[:B]) / n  # == each round's X.sum(axis=0) / n, as d >= 2
            grads, block, last = np.full((B, d), math.nan), measured[k0 : k0 + B], B - (k0 + B == K)
            if every_round and last:
                block[:last, 0], grads[:last], block[:last, 4] = evaluate(config.task, xbars[:last])
            if last < B:  # round K-1, alone
                block[last, 0], grads[last], block[last, 4] = evaluate(config.task, xbars[last])
            measured[k0 : k0 + B, 1] = np.vecdot(grads, grads)  # == grad @ grad
            measured[k0 : k0 + B, 2] = mean_sq_consensus(Zs[:B], xbars, out=Zs[:B])  # may overwrite iterates[:B]: the carry reads row B
            measured[k0 : k0 + B, 3] = np.count_nonzero(norms[:B] > clip[k0 : k0 + B, None], axis=1) / n
            max_grad_norm = max(max_grad_norm, float(norms[:B].max()))
            iterates[0], Zs[0] = iterates[B], Zs[B]  # what the next block enters with

    meta = {
        "n": n, "d": d, "K": K, "J": J, "gamma": float(config.gamma), "seed": config.seed,
        "graph": graph.kind, "noise_enabled": noise is not None, **config.extra_meta,
        **(config.schedule.claim() if noise is not None else {}),  # the claim of the noise drawn
        **(dict(graph_window=graph.period, graph_diameter=graph.diameter) if graph.diameter else {}),
        "max_weight_sum_drift": max_weight_drift, "max_stoch_grad_norm": max_grad_norm,
    }
    return MetricsLog(meta=meta, rows=round_records(measured, clip, budget, sigma))
