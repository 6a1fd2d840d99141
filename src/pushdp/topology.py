"""Time-varying directed graphs and their column-stochastic mixing matrices.

A communication round is described by a mixing matrix P where ``P[i, j]`` is
the weight node i applies to the value pushed by node j.  Columns describe how
a sender splits its outgoing mass, so every column must sum to one (push-sum
weights then undo the directional bias).  ``graph_schedule`` builds a
``GraphSchedule``, a read-only table of such matrices cycled round by round,
from one of four kinds:

* ``ring``: node i keeps half its mass and sends half to (i + 1) mod n.
* ``exponential``: node i keeps half and sends half to (i + 2^(k mod m)) mod n
  at round k, with m = floor(log2(n - 1)) + 1, so the hop distance cycles
  through powers of two and the schedule is periodic with period m.
* ``complete``: uniform all-to-all averaging with every entry 1/n.
* ``explicit``: a given list of matrices.

Ring and exponential, the one-peer push of Stochastic Gradient Push, are kept as
an O(n) source index per round and mixed by a gather, the others as dense matrices.
The module also checks B-strong-connectivity of a schedule: every window of B
consecutive rounds must have a strongly connected edge union.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAPH_KINDS = ("ring", "exponential", "complete", "explicit")

# Column sums may deviate from one by at most this much.
COLUMN_SUM_TOL = 1e-12


class MixingMatrixError(ValueError):
    """A proposed mixing matrix violates the column-stochastic contract."""


def validate_column_stochastic(w: np.ndarray) -> None:
    """Raise ``MixingMatrixError`` unless the (n, n) matrix is column-stochastic with
    positive self weights.

    Checks run in a fixed order: finite entries, entry signs, column sums within
    ``COLUMN_SUM_TOL``, then the diagonal.  Positive diagonals are required
    because a node that forgets its own value breaks push-sum weight recovery.
    """
    for what, bad in (("non-finite", ~np.isfinite(w)), ("negative", w < 0)):
        entries = np.argwhere(bad)
        if entries.size:
            i, j = (int(v) for v in entries[0])
            raise MixingMatrixError(f"{what} weight {float(w[i, j])!r} at entry ({i}, {j})")
    sums = w.sum(axis=0)
    bad = np.argwhere(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
    if bad.size:
        j = int(bad[0][0])
        raise MixingMatrixError(f"column {j} sums to {float(sums[j])!r}, expected 1 within {COLUMN_SUM_TOL}")
    diag = np.diagonal(w)
    off = np.argwhere(diag <= 0)
    if off.size:
        raise MixingMatrixError(f"node {int(off[0][0])} has no positive self weight")


@dataclass(frozen=True)
class GraphSchedule:
    """Periodic sequence of mixing matrices, one per communication round.

    Round k mixes through P_k, slot ``k % period`` of one read-only table: either
    ``peers``, a ``(period, n)`` source index whose rows are permutations, for the
    one-peer push P_k = (I + S_k) / 2 with ``S_k[i, peers[k, i]] = 1``; or
    ``weights``, a dense ``(period, n, n)`` stack whose slices each pass
    ``validate_column_stochastic`` in order.  So a schedule that exists is valid.
    The table is not copied: an array passed in becomes read-only.
    """

    kind: str
    weights: np.ndarray | None = None
    peers: np.ndarray | None = None

    def __post_init__(self):
        if self.peers is not None:
            table = np.asarray(self.peers)
            nodes = np.arange(table.shape[-1])
            if table.ndim != 2 or not table.size or (np.sort(table, axis=1) != nodes).any():
                raise ValueError("peers must be a (period, n) stack of permutations of the nodes")
        else:
            table = np.asarray(self.weights, dtype=float)
            if table.ndim != 3 or not len(table) or table.shape[1] != table.shape[2]:
                raise ValueError(f"weights must be a (period, n, n) stack, got {table.shape}")
            for w in table:
                validate_column_stochastic(w)
        table.setflags(write=False)
        object.__setattr__(self, "weights" if self.peers is None else "peers", table)

    @property
    def n(self) -> int:
        return (self.weights if self.peers is None else self.peers).shape[-1]

    @property
    def period(self) -> int:
        return len(self.weights if self.peers is None else self.peers)

    @property
    def unit_weights(self) -> bool:
        """Whether every push-sum weight stays 1.0, as one-peer push sums 1 * 0.5 + 1 * 0.5 each round."""
        return self.peers is not None

    def mix(self, k: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P_k @ x for an x of n rows, written to ``out`` if given: under one-peer push, half of
        each row plus the gathered half of its peer's, which is the dense product bit for bit
        unless x has 0s or subnormals."""
        if self.peers is None:
            return np.matmul(self.weights[k % len(self.weights)], x, out=out)
        half = np.multiply(x, 0.5, out=out)  # its gathered copy is taken before the add writes
        return np.add(half, half.take(self.peers[k % len(self.peers)], axis=0), out=half)


def graph_schedule(kind: str, n: int, matrices=None) -> GraphSchedule:
    """Build a schedule from a generator name or an explicit matrix list.

    ``kind`` is one of ``GRAPH_KINDS``; ``explicit`` takes ``matrices`` (dense
    ``(n, n)`` arrays or nested lists) and cycles through them.  Ring and exponential
    are built as ``peers``, the others as a dense stack; the schedule holds that array.
    """
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    if kind == "explicit":
        if matrices is None or not len(matrices):
            raise ValueError("explicit schedule needs at least one matrix")
        mats = [np.asarray(m, dtype=float) for m in matrices]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError(f"weights must be ({n}, {n}), got {m.shape}")
        return GraphSchedule(kind, np.stack(mats))
    if n < 1:
        raise ValueError("need at least one node")
    if kind == "complete":
        return GraphSchedule(kind, np.full((1, n, n), 1.0 / n))
    # exponential hops: the powers of two up to n - 1 (hop 1 alone below three nodes)
    hops = 2 ** np.arange(max(1, (n - 1).bit_length())) if kind == "exponential" else np.ones(1, int)
    # node i receives from (i - hop) mod n; hop % n == 0 sends to self
    return GraphSchedule(kind, peers=(np.arange(n) - hops[:, None]) % n)


def _saturation(n: int, receivers: np.ndarray, senders: np.ndarray):
    """Per receiver, whether every source reaches it and its saturation hop (its
    distance from the last source to reach it), over edges ``senders[e]`` ->
    ``receivers[e]`` sorted by receiver, every node having its self edge.

    One breadth-first search advances every source at once: row i of ``reach`` is a
    bitset over sources (bit s % 64 of word s // 64) holding those that have reached
    node i.  A hop ORs the rows of each node's in-neighbours in one
    ``bitwise_or.reduceat`` at O(edges * n / 64) word operations, and the search
    stops at the first hop that reaches no one new: diameter + 1 hops.
    """
    starts = np.flatnonzero(np.diff(receivers, prepend=-1))
    nodes = np.arange(n)
    reach = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.uint64(1) << (nodes % 64).astype(np.uint64)
    everyone = np.bitwise_or.reduce(reach, axis=0)
    saturation = np.zeros(n, dtype=int)
    hops = 0
    while True:
        grown = np.bitwise_or.reduceat(reach[senders], starts, axis=0)
        fresh = (grown != reach).any(axis=1)
        if not fresh.any():
            return (reach == everyone).all(axis=1), saturation
        hops += 1
        saturation[fresh] = hops
        reach = grown


def check_b_strong_connectivity(schedule: GraphSchedule, B: int) -> int | None:
    """The diameter over windows of B consecutive rounds, or None unless every window
    is strongly connected.

    The schedule is periodic, so examining lcm(period, B) / B consecutive
    windows covers every union graph that can ever occur.  A window of at least
    a period holds every matrix of the period, so it unites ``min(B, period)``
    rounds and all such windows are the one union: the cost is bounded by the
    period, however large B is.  The diameter is the worst shortest-path
    length over the windows, measured along the direction messages travel
    (edge j -> i when ``P[i, j] > 0``).  A window's union is an
    edge list read from ``peers`` or the dense union's nonzeros, and one bitset
    BFS (``_saturation``) over it takes a handful of hops for the exponential
    graph, n for a ring; a union of all n^2 edges has diameter 1 with no search.
    """
    if B < 1:
        raise ValueError("window must be at least one round")
    n, period = schedule.n, schedule.period
    num_windows = 1 if B >= period else math.lcm(period, B) // B
    diameter = 0
    for window in range(num_windows):
        rounds = (window * B + np.arange(min(B, period))) % period
        if schedule.peers is None:
            union = (schedule.weights > 0)[rounds].any(axis=0)
            if union.all():  # every edge, as on a complete graph: no search needed
                diameter = max(diameter, int(n > 1))
                continue
            receivers, senders = np.nonzero(union)
        else:  # each node's self edge, then its peer in each round
            senders = np.vstack([np.arange(n), schedule.peers[rounds]]).T.ravel()
            receivers = np.repeat(np.arange(n), len(rounds) + 1)
        reached, saturation = _saturation(n, receivers, senders)
        if not reached.all():
            return None
        diameter = max(diameter, int(saturation.max()))
    return diameter
