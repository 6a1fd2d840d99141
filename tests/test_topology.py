import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    equal_but_nan_payloads,
    one_peer_matrices,
    reference_window_distances,
    validate_each_slice,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pushdp
from pushdp.topology import (
    ColumnSumViolation,
    MissingSelfLoop,
    GraphSchedule,
    NegativeWeight,
    NonFiniteWeight,
    ConnectivityReport,
    GRAPH_KINDS,
    check_b_strong_connectivity,
    exponential_period,
    graph_schedule,
    _saturation,
    validate_column_stochastic,
)


def test_ring_matrix_entries():
    w = graph_schedule("ring", 4).matrix_at(0)
    for j in range(4):
        assert w[j, j] == 0.5
        assert w[(j + 1) % 4, j] == 0.5
    assert w.sum() == pytest.approx(4.0)


def test_exponential_hop_sequence_n8():
    # node 0's receiver over rounds: hops 1, 2, 4, then wrap to 1 (period 3)
    assert exponential_period(8) == 3
    for k, receiver in [(0, 1), (1, 2), (2, 4), (3, 1)]:
        w = graph_schedule("exponential", 8).matrix_at(k)
        assert w[receiver, 0] == 0.5
        assert w[0, 0] == 0.5


def test_exponential_period_small_n():
    assert exponential_period(1) == 1
    assert exponential_period(2) == 1
    assert exponential_period(3) == 2
    assert exponential_period(5) == 3


def test_single_node_graphs_are_identity():
    for kind in ("ring", "exponential", "complete"):
        assert graph_schedule(kind, 1).matrix_at(0) == pytest.approx(np.array([[1.0]]))


def test_complete_graph_uniform():
    w = graph_schedule("complete", 5).matrix_at(0)
    assert np.all(w == 0.2)


@pytest.mark.parametrize("kind", ["ring", "exponential", "complete"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 33])
def test_generators_column_stochastic(kind, n):
    sched = graph_schedule(kind, n)
    for k in range(sched.period):
        m = sched.matrix_at(k)
        validate_column_stochastic(m)
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12


def test_schedule_periodicity():
    sched = graph_schedule("exponential", 8)
    for k in range(6):
        assert np.array_equal(sched.matrix_at(k), sched.matrix_at(k + sched.period))


def test_validate_negative_entry():
    w = np.array([[0.5, 0.6], [0.5, 0.4]])
    w[0, 1] = -0.1
    w[1, 1] = 1.1
    with pytest.raises(NegativeWeight):
        validate_column_stochastic(w)


def test_validate_column_sum():
    w = np.array([[0.5, 0.3], [0.5, 0.3]])
    with pytest.raises(ColumnSumViolation) as exc:
        validate_column_stochastic(w)
    assert exc.value.j == 1
    assert exc.value.total == pytest.approx(0.6)


def test_validate_missing_self_loop():
    w = np.array([[0.0, 0.5], [1.0, 0.5]])
    with pytest.raises(MissingSelfLoop) as exc:
        validate_column_stochastic(w)
    assert exc.value.i == 0


def test_explicit_schedule_validated():
    good = [[[0.5, 0.5], [0.5, 0.5]]]
    sched = graph_schedule("explicit", 2, good)
    assert sched.period == 1
    with pytest.raises(ColumnSumViolation):
        graph_schedule("explicit", 2, [[[0.5, 0.5], [0.4, 0.5]]])


@pytest.mark.parametrize(
    "bad,error,where",
    [
        ([[0.5, -0.1], [0.5, 1.1]], NegativeWeight, {"i": 0, "j": 1}),
        ([[0.5, 0.3], [0.5, 0.3]], ColumnSumViolation, {"j": 1}),
        ([[0.5, 1.0], [0.5, 0.0]], MissingSelfLoop, {"i": 1}),
        ([[np.nan, 0.5], [0.5, 0.5]], NonFiniteWeight, {"i": 0, "j": 0}),
        ([[0.5, -np.inf], [0.5, 0.5]], NonFiniteWeight, {"i": 0, "j": 1, "value": -np.inf}),
        ([[0.5, 0.5], [np.inf, -0.1]], NonFiniteWeight, {"i": 1, "j": 0, "value": np.inf}),
    ],
    ids=["negative", "column-sum", "self-loop", "nan", "-inf", "inf-before-negative"],
)
def test_schedule_validates_every_slice(bad, error, where):
    # the first slice is valid, so the error must come from checking the second
    stack = np.stack([np.full((2, 2), 0.5), np.array(bad)])
    with pytest.raises(error) as exc:
        GraphSchedule("explicit", stack)
    assert {key: getattr(exc.value, key) for key in where} == where


def _raised(check, stack):
    """(type, attributes, message) of the error ``check(stack)`` raises, or None;
    the attributes as their repr, so that a NaN value compares equal to itself."""
    try:
        check(stack)
    except ValueError as exc:
        return type(exc), repr(vars(exc)), str(exc)
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
    # the one-pass check must raise what the first failing slice raises on its own
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
    for table in (sched.peers, sched.matrix_at(1), graph_schedule("complete", 3).weights[0]):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


@pytest.mark.parametrize("peers", [[[0, 0]], [[0, 2]], [0, 1], np.zeros((0, 2), int)])
def test_schedule_rejects_peers_that_are_not_permutations(peers):
    # a repeated source leaves some sender's column summing to 1/2 or 3/2
    with pytest.raises(ValueError, match="permutations"):
        GraphSchedule("ring", peers=np.array(peers))


def test_graph_schedule_builds_exactly_the_graph_kinds():
    for kind in GRAPH_KINDS:
        assert graph_schedule(kind, 2, [[[1.0, 0.0], [0.0, 1.0]]]).kind == kind
    for kind in ("star", "Ring", ""):
        with pytest.raises(ValueError, match=f"^unknown graph kind {kind!r}$"):
            graph_schedule(kind, 2)


def test_explicit_schedule_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"^weights must be \(2, 2\), got \(2, 3\)$"):
        graph_schedule("explicit", 2, [[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]])
    with pytest.raises(ValueError, match=r"\(period, n, n\) stack"):
        GraphSchedule("explicit", np.full((2, 3), 0.5))


def test_ring_diameter_n4():
    # hand BFS on edges i -> i+1: longest path 0 -> 3 takes 3 hops
    report = check_b_strong_connectivity(graph_schedule("ring", 4), B=1)
    assert report.is_b_connected
    assert report.diameter == 3


def test_exponential_union_connected_n4():
    # period 2; a window of B=2 unions hop-1 and hop-2 edges
    report = check_b_strong_connectivity(graph_schedule("exponential", 4), B=2)
    assert report.is_b_connected


def test_exponential_single_round_disconnected_n4():
    # the hop-2 round alone splits {0, 2} from {1, 3}
    report = check_b_strong_connectivity(graph_schedule("exponential", 4), B=1)
    assert not report.is_b_connected
    assert report.diameter is None


def test_exponential_diameter_n8():
    # union of hops {1, 2, 4} mod 8: offset 7 needs three hops (1 + 2 + 4)
    report = check_b_strong_connectivity(graph_schedule("exponential", 8), B=3)
    assert report.is_b_connected
    assert report.diameter == 3


def test_disconnected_explicit_schedule():
    identity = np.eye(3)
    sched = graph_schedule("explicit", 3, [identity])
    for B in (1, 2, 5):
        assert not check_b_strong_connectivity(sched, B).is_b_connected


def per_round_report(schedule, B):
    """The connectivity report with each window's union taken one round at a time,
    over all lcm(period, B) / B windows; the oracle for the bounded window."""
    diameter = 0
    for window in range(math.lcm(schedule.period, B) // B):
        union = np.zeros((schedule.n, schedule.n), dtype=bool)
        for k in range(window * B, (window + 1) * B):
            union |= schedule.matrix_at(k) > 0
        dist = reference_window_distances(schedule.n, union)
        if (dist < 0).any():
            return ConnectivityReport(is_b_connected=False, window=B, diameter=None)
        diameter = max(diameter, int(dist.max()))
    return ConnectivityReport(is_b_connected=True, window=B, diameter=diameter)


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
    period = schedule.period
    at_period = check_b_strong_connectivity(schedule, period)
    huge = check_b_strong_connectivity(schedule, 10**9)
    assert huge == ConnectivityReport(at_period.is_b_connected, 10**9, at_period.diameter)
    for B in (period + 1, 2 * period):
        assert check_b_strong_connectivity(schedule, B) == per_round_report(schedule, B)


def _second_eigenvalue_modulus(schedule):
    """|lambda_2| of the period product P_{T-1} ... P_0."""
    slices = [schedule.matrix_at(k) for k in reversed(range(schedule.period))]
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
        union |= schedule.matrix_at(k) > 0
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
            assert np.array_equal(schedule.matrix_at(k), oracle[k % len(oracle)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 20, 33, 64])
@pytest.mark.parametrize("kind", ["ring", "exponential"])
def test_connectivity_from_peers_matches_dense_oracle(kind, n):
    # the edge list read from peers against the nonzeros of the definition's dense stack
    schedule = graph_schedule(kind, n)
    dense = GraphSchedule("explicit", one_peer_matrices(kind, n))
    for B in range(1, schedule.period + 2):
        assert check_b_strong_connectivity(schedule, B) == check_b_strong_connectivity(dense, B)


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
        report = check_b_strong_connectivity(schedule, schedule.period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == ConnectivityReport(True, 10, 10)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [1, 2, 5])
def test_complete_schedule_report_matches_the_search(n):
    # a union of all n^2 edges skips the search; its report is the one the search gives
    reached, saturation = _saturation(n, *np.nonzero(np.ones((n, n), dtype=bool)))
    searched = ConnectivityReport(bool(reached.all()), 1, int(saturation.max()))
    assert check_b_strong_connectivity(graph_schedule("complete", n), 1) == searched


def test_complete_n1024_check_gathers_no_edge_list():
    # the search over all n^2 edges peaked at 144 MB here; the union alone is 1 MB of bools
    schedule = graph_schedule("complete", 1024)
    tracemalloc.start()
    try:
        report = check_b_strong_connectivity(schedule, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == ConnectivityReport(True, 1, 1)
    assert peak < 10 * 2**20
