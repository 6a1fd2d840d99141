import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    dense_matrix,
    equal_but_nan_payloads,
    one_peer_matrices,
    reference_window_distances,
    validate_each_slice,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pushdp
from pushdp import topology
from pushdp.topology import (
    GraphSchedule,
    MixingMatrixError,
    GRAPH_KINDS,
    check_strong_connectivity,
    graph_schedule,
    _saturation,
    validate_column_stochastic,
)


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_ring_matrix_entries():
    w = dense_matrix(graph_schedule("ring", 4), 0)
    for j in range(4):
        assert w[j, j] == 0.5
        assert w[(j + 1) % 4, j] == 0.5
    assert w.sum() == pytest.approx(4.0)


def test_exponential_hop_sequence_n8():
    # node 0's receiver over rounds: hops 1, 2, 4, then wrap to 1 (period 3)
    assert graph_schedule("exponential", 8).period == 3
    for k, receiver in [(0, 1), (1, 2), (2, 4), (3, 1)]:
        w = dense_matrix(graph_schedule("exponential", 8), k)
        assert w[receiver, 0] == 0.5
        assert w[0, 0] == 0.5


def test_exponential_period_small_n():
    # one round per hop 2^k <= n - 1, counted by doubling; one round below three nodes
    for n in [*range(1, 1101), 2**12 - 1, 2**12, 2**12 + 1]:
        hops, hop = 0, 1
        while hop <= n - 1:
            hops, hop = hops + 1, 2 * hop
        assert graph_schedule("exponential", n).period == max(hops, 1), n


def test_single_node_graphs_are_identity():
    for kind in ("ring", "exponential", "complete"):
        assert dense_matrix(graph_schedule(kind, 1), 0) == pytest.approx(np.array([[1.0]]))


def test_complete_graph_uniform():
    w = dense_matrix(graph_schedule("complete", 5), 0)
    assert np.all(w == 0.2)


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 33])
def test_generators_column_stochastic(kind, n):
    sched = graph_schedule(kind, n)
    for k in range(sched.period):
        m = dense_matrix(sched, k)
        validate_column_stochastic(m)
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12


def test_schedule_periodicity():
    sched = graph_schedule("exponential", 8)
    for k in range(6):
        assert np.array_equal(dense_matrix(sched, k), dense_matrix(sched, k + sched.period))


def test_validate_negative_entry():
    w = np.array([[0.5, 0.6], [0.5, 0.4]])
    w[0, 1] = -0.1
    w[1, 1] = 1.1
    with pytest.raises(MixingMatrixError, match=_exactly("negative weight -0.1 at entry (0, 1)")):
        validate_column_stochastic(w)


def test_validate_column_sum():
    w = np.array([[0.5, 0.3], [0.5, 0.3]])
    with pytest.raises(MixingMatrixError, match=_exactly("column 1 sums to 0.6, expected 1 within 1e-12")):
        validate_column_stochastic(w)


def test_validate_missing_self_loop():
    w = np.array([[0.0, 0.5], [1.0, 0.5]])
    with pytest.raises(MixingMatrixError, match=_exactly("node 0 has no positive self weight")):
        validate_column_stochastic(w)


def test_explicit_schedule_validated():
    good = [[[0.5, 0.5], [0.5, 0.5]]]
    sched = graph_schedule("explicit", 2, good)
    assert sched.period == 1
    message = "graph.matrices: column 0 sums to 0.9, expected 1 within 1e-12"  # the type kept, the key named
    with pytest.raises(MixingMatrixError, match=_exactly(message)):
        graph_schedule("explicit", 2, [[[0.5, 0.5], [0.4, 0.5]]])


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[0.5, -0.1], [0.5, 1.1]], "negative weight -0.1 at entry (0, 1)"),
        ([[0.5, 0.3], [0.5, 0.3]], "column 1 sums to 0.6, expected 1 within 1e-12"),
        ([[0.5, 1.0], [0.5, 0.0]], "node 1 has no positive self weight"),
        ([[np.nan, 0.5], [0.5, 0.5]], "non-finite weight nan at entry (0, 0)"),
        ([[0.5, -np.inf], [0.5, 0.5]], "non-finite weight -inf at entry (0, 1)"),
        ([[0.5, 0.5], [np.inf, -0.1]], "non-finite weight inf at entry (1, 0)"),
    ],
    ids=["negative", "column-sum", "self-loop", "nan", "-inf", "inf-before-negative"],
)
def test_schedule_validates_every_slice(bad, message):
    # the first slice is valid, so the error must come from checking the second
    stack = np.stack([np.full((2, 2), 0.5), np.array(bad)])
    with pytest.raises(MixingMatrixError, match=_exactly(message)):
        GraphSchedule("explicit", stack)


def _raised(check, stack):
    """(type, message) of the error ``check(stack)`` raises, or None."""
    try:
        check(stack)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    period=st.integers(1, 4),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(
        st.tuples(
            st.sampled_from(["negative", "shift", "self-loop", "nan"]),
            st.integers(0, 3),
            st.integers(0, 5),
            st.integers(0, 5),
            # column-sum shifts on both sides of COLUMN_SUM_TOL = 1e-12
            st.sampled_from([1e-3, 2e-12, 1.001e-12, 1e-12, 9.99e-13, -1.001e-12, -0.25]),
        ),
        max_size=3,
    ),
)
def test_schedule_check_matches_per_slice_check(period, n, seed, faults):
    # random column-stochastic stacks with positive diagonals, then injected faults:
    # the schedule must raise what the first failing slice raises on its own
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 1.0, size=(period, n, n))
    w /= w.sum(axis=1, keepdims=True)
    for kind, s, i, j, shift in faults:
        s, i, j = s % period, i % n, j % n
        if kind == "negative":
            w[s, i, j] = -abs(shift)
        elif kind == "shift":
            w[s, i, j] += shift
        elif kind == "self-loop":
            w[s, (j + 1) % n, j] += w[s, j, j]
            w[s, j, j] = 0.0
        else:
            w[s, i, j] = np.nan
    expected = _raised(validate_each_slice, w)
    if np.isnan(w).any():  # a NaN weight never passes either check
        assert expected is not None
    assert _raised(lambda stack: GraphSchedule("explicit", stack), w.copy()) == expected


def test_schedule_weights_are_read_only():
    # a one-peer schedule holds its (period, n) source index and no dense stack
    sched = graph_schedule("exponential", 8)
    assert sched.weights is None and sched.peers.shape == (sched.period, 8) and sched.n == 8
    for table in (sched.peers, graph_schedule("complete", 3).weights[0]):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


@pytest.mark.parametrize("peers", [[[0, 0]], [[0, 2]], [0, 1], np.zeros((0, 2), int)])
def test_schedule_rejects_peers_that_are_not_permutations(peers):
    # a repeated source leaves some sender's column summing to 1/2 or 3/2
    with pytest.raises(ValueError, match="permutations"):
        GraphSchedule("ring", peers=np.array(peers))


def test_graph_schedule_builds_exactly_the_graph_kinds():
    identity = [[[1.0, 0.0], [0.0, 1.0]]]
    for kind in GRAPH_KINDS:
        assert graph_schedule(kind, 2, identity if kind == "explicit" else None).kind == kind
    for kind, n in (("star", 2), ("Ring", 2), ("", 2), ("bogus", 4)):
        message = f"graph.kind must be one of {GRAPH_KINDS}, got {kind!r}"
        with pytest.raises(ValueError, match=_exactly(message)):
            graph_schedule(kind, n)
    # matrices are read by an explicit schedule alone, so a generated kind refuses them
    for kind, matrices in (("ring", [np.eye(4)]), ("exponential", []), ("complete", np.eye(4)[None])):
        message = f"graph.matrices is only read by an explicit schedule, not {kind!r}"
        with pytest.raises(ValueError, match=_exactly(message)):
            graph_schedule(kind, 4, matrices)


def test_explicit_schedule_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"^graph\.matrices: weights must be \(2, 2\), got \(2, 3\)$"):
        graph_schedule("explicit", 2, [[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]])
    with pytest.raises(ValueError, match=r"\(period, n, n\) stack"):
        GraphSchedule("explicit", np.full((2, 3), 0.5))


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete"])
def test_generated_schedule_needs_a_node(kind):
    with pytest.raises(ValueError, match="^need at least one node$"):
        graph_schedule(kind, 0)


@pytest.mark.parametrize("matrices", [None, [], np.empty((0, 2, 2))])
def test_explicit_schedule_needs_a_matrix(matrices):
    message = "graph.matrices: explicit schedule needs at least one matrix"
    if matrices is None:
        message = "graph.matrices is required for an explicit schedule"
    with pytest.raises(ValueError, match=_exactly(message)):
        graph_schedule("explicit", 2, matrices)


@pytest.mark.parametrize(
    "matrices,message",
    [
        (5, "graph.matrices must be a JSON list of matrices"),
        ({"a": 1}, "graph.matrices must be a JSON list of matrices"),
        ("x", "graph.matrices must be a JSON list of matrices"),
        ([{"a": 1}], "graph.matrices: float() argument must be a string or a "),  # numpy's TypeError
    ],
    ids=["number", "dict", "string", "list-of-dict"],
)
def test_explicit_schedule_refuses_what_is_not_a_list_of_matrices(matrices, message):
    # a ValueError even where numpy raises TypeError, so the CLI exits 1 naming the key
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as caught:
        graph_schedule("explicit", 1, matrices)
    assert type(caught.value) is ValueError


def test_ring_diameter_n4():
    # hand BFS on edges i -> i+1: longest path 0 -> 3 takes 3 hops
    assert check_strong_connectivity(graph_schedule("ring", 4)) == 3


def test_exponential_union_connected_n4():
    # period 2: the union of hop-1 and hop-2 edges
    assert check_strong_connectivity(graph_schedule("exponential", 4)) == 2


def test_exponential_single_round_disconnected_n4():
    # the hop-2 round alone, as a schedule of its own, splits {0, 2} from {1, 3}
    hop_two = GraphSchedule("explicit", one_peer_matrices("exponential", 4)[1:])
    assert check_strong_connectivity(hop_two) is None


def test_exponential_diameter_n8():
    # union of hops {1, 2, 4} mod 8: offset 7 needs three hops (1 + 2 + 4)
    assert check_strong_connectivity(graph_schedule("exponential", 8)) == 3


def test_disconnected_explicit_schedule():
    assert check_strong_connectivity(graph_schedule("explicit", 3, [np.eye(3)])) is None


def per_round_diameter(schedule, B):
    """The diameter, or None if a window is not strongly connected, with each window's
    union taken one round at a time, over all lcm(period, B) / B windows of B rounds;
    the oracle for the check over one period."""
    diameter = 0
    for window in range(math.lcm(schedule.period, B) // B):
        union = np.zeros((schedule.n, schedule.n), dtype=bool)
        for k in range(window * B, (window + 1) * B):
            union |= dense_matrix(schedule, k) > 0
        dist = reference_window_distances(schedule.n, union)
        if (dist < 0).any():
            return None
        diameter = max(diameter, int(dist.max()))
    return diameter


# a period-3 explicit schedule whose rounds each link one pair of 3 nodes
_PAIRS = [
    np.eye(3) + 0.5 * np.array(m)
    for m in (
        [[-1, 1, 0], [1, -1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, -1, 1], [0, 1, -1]],
        [[-1, 0, 1], [0, 0, 0], [1, 0, -1]],
    )
]


@pytest.mark.parametrize(
    "schedule",
    [
        graph_schedule("exponential", 8),
        graph_schedule("exponential", 5),
        graph_schedule("ring", 4),
        graph_schedule("explicit", 3, _PAIRS),
        graph_schedule("explicit", 3, _PAIRS[:2]),
        graph_schedule("explicit", 3, [np.eye(3)]),
    ],
    ids=["exponential-8", "exponential-5", "ring-4", "pairs-3", "pairs-2", "identity"],
)
def test_window_of_a_period_or_more_costs_one_period(schedule):
    # every window of a period or more rounds has the one union the check reads
    period = schedule.period
    for B in (period, period + 1, 2 * period):
        assert check_strong_connectivity(schedule) == per_round_diameter(schedule, B)


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete"])
def test_generated_schedules_match_the_windowed_oracle_at_their_period(kind):
    for n in range(1, 70):
        schedule = graph_schedule(kind, n)
        diameter = check_strong_connectivity(schedule)
        assert diameter == per_round_diameter(schedule, schedule.period), n
        assert (diameter == 0) == (n == 1)


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete"])
def test_generated_kinds_are_connected_at_every_n(kind):
    # only graph.matrices can make a schedule the CLI refuses as disconnected
    for n in range(1, 70):
        assert graph_schedule(kind, n).diameter is not None, n


def test_a_schedule_searches_its_diameter_once(monkeypatch):
    calls, search = [], topology.check_strong_connectivity
    monkeypatch.setattr(topology, "check_strong_connectivity", lambda s: calls.append(s) or search(s))
    schedule = graph_schedule("exponential", 8)
    assert not calls  # building searches nothing
    assert (schedule.diameter, schedule.diameter) == (3, 3) and calls == [schedule]
    assert graph_schedule("explicit", 3, [np.eye(3)]).diameter is None


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(1, 8),
    period=st.integers(1, 4),
    density=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_explicit_schedules_match_the_windowed_oracle_at_their_period(n, period, density, seed):
    # sparse draws leave many unions disconnected, so None is covered
    rng = np.random.default_rng(seed)
    edges = rng.random((period, n, n)) < density
    edges[:, np.arange(n), np.arange(n)] = True  # every node keeps a positive self weight
    weights = edges * rng.uniform(0.1, 1.0, edges.shape)
    schedule = graph_schedule("explicit", n, list(weights / weights.sum(axis=1, keepdims=True)))
    diameter = check_strong_connectivity(schedule)
    assert diameter == per_round_diameter(schedule, period)
    if n == 1:
        assert diameter == 0


def _second_eigenvalue_modulus(schedule):
    """|lambda_2| of the period product P_{T-1} ... P_0."""
    slices = [dense_matrix(schedule, k) for k in reversed(range(schedule.period))]
    product = np.linalg.multi_dot([*slices, np.eye(schedule.n)])
    return np.sort(np.abs(np.linalg.eigvals(product)))[-2]


@pytest.mark.parametrize("n", [4, 8, 20])
def test_complete_contracts_faster_than_ring(n):
    ring = _second_eigenvalue_modulus(graph_schedule("ring", n))
    complete = _second_eigenvalue_modulus(graph_schedule("complete", n))
    assert complete <= 1e-12 < ring == pytest.approx(np.cos(np.pi / n), abs=1e-12)


def _window_union(kind, n):
    schedule = graph_schedule(kind, n)
    union = np.zeros((n, n), dtype=bool)
    for k in range(schedule.period):
        union |= dense_matrix(schedule, k) > 0
    return union


def _assert_distances_match_reference(n, adjacency):
    # each receiver is reached by every source, and saturates, as the all-pairs BFS says
    receivers, senders = np.nonzero(adjacency | np.eye(n, dtype=bool))
    reached, saturation = _saturation(n, receivers, senders)
    want = reference_window_distances(n, adjacency)
    assert np.array_equal(reached, (want >= 0).all(axis=0))
    assert np.array_equal(saturation, want.max(axis=0))


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(1, 40),
    density=st.floats(0.0, 0.5),
    self_loops=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_distances_match_reference_bfs(n, density, self_loops, seed):
    # sparse draws leave many graphs disconnected, so -1 entries are covered
    adjacency = np.random.default_rng(seed).random((n, n)) < density
    np.fill_diagonal(adjacency, self_loops)
    _assert_distances_match_reference(n, adjacency)


def test_window_distances_disconnected_components():
    # two directed 3-cycles with one bridge 2 -> 3: nothing flows back from {3, 4, 5}
    adjacency = np.zeros((6, 6), dtype=bool)
    for j, i in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]:
        adjacency[i, j] = True
    reached, saturation = _saturation(6, *np.nonzero(adjacency | np.eye(6, dtype=bool)))
    assert reached.tolist() == [False] * 3 + [True] * 3
    assert saturation.tolist() == [2, 2, 2, 3, 4, 5]  # 0 -> 1 -> 2 -> 3 -> 4 -> 5 is the longest
    _assert_distances_match_reference(6, adjacency)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 64, 257])
@pytest.mark.parametrize("kind", ["ring", "exponential", "complete"])
def test_window_distances_match_reference_on_generators(kind, n):
    _assert_distances_match_reference(n, _window_union(kind, n))


def test_importing_the_cli_leaves_scipy_sparse_out():
    # pushdp needs no scipy module at all; scipy.special alone doubles the import's time and RSS
    code = "import sys, pushdp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(pushdp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["ring", "exponential"])
def test_one_peer_schedules_match_their_definition(kind):
    for n in range(1, 71):
        schedule, oracle = graph_schedule(kind, n), one_peer_matrices(kind, n)
        assert schedule.period == len(oracle)
        for k in range(2 * schedule.period):
            assert np.array_equal(dense_matrix(schedule, k), oracle[k % len(oracle)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 20, 33, 64])
@pytest.mark.parametrize("kind", ["ring", "exponential"])
def test_connectivity_from_peers_matches_dense_oracle(kind, n):
    # the edge list read from peers against the nonzeros of the definition's dense stack
    schedule = graph_schedule(kind, n)
    dense = GraphSchedule("explicit", one_peer_matrices(kind, n))
    assert check_strong_connectivity(schedule) == check_strong_connectivity(dense)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# exact zeros of both signs, subnormals (odd ones lose their last bit when halved) and
# values near the top of the range, mixed in among ordinary ones
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -1.5e-323, 2.5e-310, 1e300, -1e300])


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["ring", "exponential"]),
    n=st.integers(1, 70),
    k=st.integers(0, 20),
    cols=st.sampled_from([None, 1, 3]),
    data=st.data(),
)
def test_mix_matches_dense_oracle(kind, n, k, cols, data):
    schedule, oracle = graph_schedule(kind, n), one_peer_matrices(kind, n)
    P = oracle[k % len(oracle)]
    shape = (n,) if cols is None else (n, cols)
    # ordinary floats: each half is exact, so the two-term gather is the dense product
    ordinary = np.random.default_rng([n, k]).standard_normal(shape) * 10.0 ** (k - 10)
    assert _bits(schedule.mix(k, ordinary)) == _bits(P @ ordinary)
    elements = st.one_of(_EDGE_FLOATS, st.floats(-1e3, 1e3, allow_subnormal=False))
    x = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    got, want = schedule.mix(k, x), P @ x
    if (x * 0.5 * 2 == x).all():
        # exact halves: equal values, and equal bits except for the sign of a zero
        # sum, which the product takes from its zero terms 0 * x_j as well
        assert np.array_equal(got, want)
        assert _bits(got[want != 0]) == _bits(want[want != 0])
        if (x != 0).all():
            assert _bits(got) == _bits(want)
    else:
        # an odd subnormal's half rounds; the product may fuse it into its sum
        assert np.abs(got - want).max() <= 5e-324


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["ring", "exponential"]),
    n=st.integers(1, 70),
    k=st.integers(0, 20),
    cols=st.sampled_from([None, 1, 11, 33]),
    data=st.data(),
)
def test_one_peer_mix_equals_the_sum_of_both_halves_bitwise(kind, n, k, cols, data):
    # each half is taken once and gathered: the old form x * 0.5 + x[p] * 0.5, signed
    # zeros, subnormals and infinities included
    schedule = graph_schedule(kind, n)
    peers = schedule.peers[k % schedule.period]
    elements = st.one_of(_EDGE_FLOATS, st.sampled_from([np.inf, -np.inf, np.nan]), st.floats(-1e3, 1e3))
    x = data.draw(hnp.arrays(np.float64, (n,) if cols is None else (n, cols), elements=elements))
    with np.errstate(invalid="ignore"):
        got, want = schedule.mix(k, x), x * 0.5 + x[peers] * 0.5
    assert equal_but_nan_payloads(got, want)
    if not np.isnan(x).any():
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("kind", ["ring", "exponential"])
def test_single_node_mix_returns_its_input(kind):
    # P = [[1.0]]: x / 2 + x / 2 is x for every float whose half is exact, -0.0 included
    # (the dense product gives +0.0 there); an odd subnormal's halves round to even
    schedule = graph_schedule(kind, 1)
    x = np.array([[-0.0, 0.0, 2.5, -1e300, 2e-323, 5e-324, 1.5e-323]])  # one node's row
    got = schedule.mix(0, x)
    assert _bits(got[:, :5]) == _bits(x[:, :5])
    assert got[0, 5:].tolist() == [0.0, 2e-323]
    for j, value in enumerate(x[0]):
        assert _bits(schedule.mix(0, np.array([value]))) == _bits(got[:, j])


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete", "explicit"])
def test_mix_into_out_returns_out_and_equals_the_allocating_mix_bitwise(kind):
    # the round loop mixes straight into its iterate buffer and the weights into theirs
    n = 6
    A = np.random.default_rng(5).uniform(0.1, 1.0, (2, n, n))
    schedule = graph_schedule(kind, n, list(A / A.sum(axis=1, keepdims=True)) if kind == "explicit" else None)
    rng = np.random.default_rng([n, len(kind)])
    for k in range(2 * schedule.period + 1):
        for shape in ((n,), (n, 1), (n, 11)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            x[0] = -0.0
            out = np.full(shape, np.nan)
            assert schedule.mix(k, x, out=out) is out
            assert _bits(out) == _bits(schedule.mix(k, x))


def test_exponential_n1024_schedule_and_check_allocate_no_dense_matrix():
    # a dense (period, n, n) stack alone would take 84 MB at n = 1024, one n x n float
    # matrix 8 MB; the peers table and the bitset BFS need well under 8 MB together
    tracemalloc.start()
    try:
        schedule = graph_schedule("exponential", 1024)
        diameter = check_strong_connectivity(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (schedule.period, diameter) == (10, 10)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [1, 2, 5])
def test_complete_schedule_report_matches_the_search(n):
    # a union of all n^2 edges skips the search; its diameter is the one the search gives
    reached, saturation = _saturation(n, *np.nonzero(np.ones((n, n), dtype=bool)))
    assert reached.all()
    assert check_strong_connectivity(graph_schedule("complete", n)) == int(saturation.max())


def test_complete_n1024_check_gathers_no_edge_list():
    # the search over all n^2 edges peaked at 144 MB here; the union alone is 1 MB of bools
    schedule = graph_schedule("complete", 1024)
    tracemalloc.start()
    try:
        diameter = check_strong_connectivity(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diameter == 1
    assert peak < 10 * 2**20
