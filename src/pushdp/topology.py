"""Time-varying directed graphs and their column-stochastic mixing matrices.

A communication round is described by a mixing matrix P where ``P[i, j]`` is
the weight node i applies to the value pushed by node j.  Columns describe how
a sender splits its outgoing mass, so every column must sum to one (push-sum
weights then undo the directional bias).  ``graph_schedule`` builds a
``GraphSchedule``, one read-only stack of such matrices cycled round by round,
from one of four kinds:

* ``ring``: node i keeps half its mass and sends half to (i + 1) mod n.
* ``exponential``: node i keeps half and sends half to (i + 2^(k mod m)) mod n
  at round k, with m = floor(log2(n - 1)) + 1, so the hop distance cycles
  through powers of two and the schedule is periodic with period m.
* ``complete``: uniform all-to-all averaging with every entry 1/n.
* ``explicit``: a given list of matrices.

The module also checks B-strong-connectivity of a schedule: every window of B
consecutive rounds must have a strongly connected edge union.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Column sums may deviate from one by at most this much.
COLUMN_SUM_TOL = 1e-12


class MixingMatrixError(ValueError):
    """A proposed mixing matrix violates the column-stochastic contract."""


class NonFiniteWeight(MixingMatrixError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"non-finite weight {value!r} at entry ({i}, {j})")


class NegativeWeight(MixingMatrixError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"negative weight {value!r} at entry ({i}, {j})")


class ColumnSumViolation(MixingMatrixError):
    def __init__(self, j: int, total: float):
        self.j, self.total = j, total
        super().__init__(f"column {j} sums to {total!r}, expected 1 within {COLUMN_SUM_TOL}")


class MissingSelfLoop(MixingMatrixError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"node {i} has no positive self weight")


def validate_column_stochastic(w: np.ndarray) -> None:
    """Raise unless the (n, n) matrix is column-stochastic with positive self weights.

    Checks run in a fixed order: finite entries, entry signs, column sums within
    ``COLUMN_SUM_TOL``, then the diagonal.  Positive diagonals are required
    because a node that forgets its own value breaks push-sum weight recovery.
    """
    for error, bad in ((NonFiniteWeight, ~np.isfinite(w)), (NegativeWeight, w < 0)):
        entries = np.argwhere(bad)
        if entries.size:
            i, j = (int(v) for v in entries[0])
            raise error(i, j, float(w[i, j]))
    sums = w.sum(axis=0)
    bad = np.argwhere(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
    if bad.size:
        j = int(bad[0][0])
        raise ColumnSumViolation(j, float(sums[j]))
    diag = np.diagonal(w)
    off = np.argwhere(diag <= 0)
    if off.size:
        raise MissingSelfLoop(int(off[0][0]))


def exponential_period(n: int) -> int:
    """Number of rounds before the exponential hop pattern repeats."""
    if n <= 2:
        return 1
    return int(math.floor(math.log2(n - 1))) + 1


@dataclass(frozen=True)
class GraphSchedule:
    """Periodic sequence of mixing matrices, one per communication round.

    ``weights`` is a read-only ``(period, n, n)`` stack and round k mixes
    through ``weights[k % period]``.  The stack is validated in one pass on
    construction (its first bad slice raises as ``validate_column_stochastic``
    does), so a schedule that exists is valid.  It is not copied: an array
    passed in becomes read-only.
    """

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 3 or not len(w) or w.shape[1] != w.shape[2]:
            raise ValueError(f"weights must be a (period, n, n) stack, got {w.shape}")
        # NaN fails ``>= 0`` and +inf fails the column sum, so no non-finite slice passes
        bad = ~(w >= 0).all(axis=(1, 2)) | (np.diagonal(w, axis1=1, axis2=2) <= 0).any(axis=1)
        bad |= (np.abs(w.sum(axis=1) - 1.0) > COLUMN_SUM_TOL).any(axis=1)
        if bad.any():
            validate_column_stochastic(w[bad.argmax()])
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    @property
    def period(self) -> int:
        return self.weights.shape[0]

    def matrix_at(self, k: int) -> np.ndarray:
        return self.weights[k % self.period]


def graph_schedule(kind: str, n: int, matrices=None) -> GraphSchedule:
    """Build a schedule from a generator name or an explicit matrix list.

    ``kind`` is one of ``ring``, ``exponential``, ``complete``, or
    ``explicit``; the latter takes ``matrices`` (dense ``(n, n)`` arrays or
    nested lists) and cycles through them.  Each generator fills its stack in
    place, so the schedule holds the array built here.
    """
    if kind == "explicit":
        if not matrices:
            raise ValueError("explicit schedule needs at least one matrix")
        mats = [np.asarray(m, dtype=float) for m in matrices]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError(f"weights must be ({n}, {n}), got {m.shape}")
        return GraphSchedule(kind, np.stack(mats))
    if kind not in ("ring", "exponential", "complete"):
        raise ValueError(f"unknown graph kind {kind!r}")
    if n < 1:
        raise ValueError("need at least one node")
    if kind == "complete":
        return GraphSchedule(kind, np.full((1, n, n), 1.0 / n))
    hops = 2 ** np.arange(exponential_period(n)) if kind == "exponential" else np.ones(1, int)
    w = np.zeros((len(hops), n, n))
    rounds, senders = np.arange(len(hops))[:, None], np.arange(n)
    w[rounds, senders, senders] = 0.5
    # receivers are a permutation per round; hop % n == 0 sends to self
    w[rounds, (senders + hops[:, None]) % n, senders] += 0.5
    return GraphSchedule(kind, w)


@dataclass(frozen=True)
class ConnectivityReport:
    is_b_connected: bool
    window: int
    diameter: int | None  # max shortest-path length over windows; None if disconnected


def _window_distances(n: int, adjacency: np.ndarray) -> np.ndarray:
    """All-pairs BFS hop counts on a directed adjacency matrix (-1 if unreachable).

    ``adjacency[i, j]`` marks an edge j -> i and ``dist[source, i]`` counts hops
    along edges.  One breadth-first search advances every source at once: row i
    of ``reach`` is a bitset over sources (packed into 64-bit words) holding
    those that have reached node i.  A hop ORs the rows of each node's
    in-neighbours, itself included, in one ``bitwise_or.reduceat`` over the edges
    sorted by receiver (the self edge keeps every group non-empty); bits that
    turn on get the hop count, and the search stops at the first hop that turns
    on none.  A hop costs O(edges * n / 64) word operations plus an n x n unpack,
    and there are diameter + 1 hops.
    """
    receivers, senders = np.nonzero(adjacency | np.eye(n, dtype=bool))
    starts = np.flatnonzero(np.diff(receivers, prepend=-1))
    words = -(-n // 64)
    reach = np.packbits(np.eye(n, 64 * words, dtype=bool), axis=1).view(np.uint64)
    dist = np.full((n, n), -1, dtype=int)  # indexed [i, source] until the return
    np.fill_diagonal(dist, 0)
    hops = 0
    while True:
        hops += 1
        grown = np.bitwise_or.reduceat(reach[senders], starts, axis=0)
        fresh = (grown & ~reach).view(np.uint8)
        if not fresh.any():
            return dist.T.copy()
        dist[np.unpackbits(fresh, axis=1, count=n).view(bool)] = hops
        reach = grown


def check_b_strong_connectivity(schedule: GraphSchedule, B: int) -> ConnectivityReport:
    """Check that every window of B consecutive rounds is strongly connected.

    The schedule is periodic, so examining lcm(period, B) / B consecutive
    windows covers every union graph that can ever occur.  The reported
    diameter is the worst shortest-path length over those windows, measured
    along the direction messages travel (edge j -> i when ``P[i, j] > 0``).
    Each window is one bitset BFS from all sources at once (see
    ``_window_distances``) taking diameter + 1 hops: a handful for the
    exponential graph, n for a ring.
    """
    if B < 1:
        raise ValueError("window must be at least one round")
    n = schedule.n
    num_windows = math.lcm(schedule.period, B) // B
    diameter = 0
    for window in range(num_windows):
        union = np.zeros((n, n), dtype=bool)
        for k in range(window * B, (window + 1) * B):
            union |= schedule.matrix_at(k) > 0
        dist = _window_distances(n, union)
        if (dist < 0).any():
            return ConnectivityReport(is_b_connected=False, window=B, diameter=None)
        diameter = max(diameter, int(dist.max()))
    return ConnectivityReport(is_b_connected=True, window=B, diameter=diameter)
