import numpy as np
import pytest

from helpers import nonprivate_config, run_from

from pushdp.metrics import COLUMNS, MetricsLog, csv_text, mean_sq_consensus, summarize


def make_row(k, **columns):
    """Round k's record: these defaults, overridden by column name."""
    base = dict(
        k=k,
        loss=1.0,
        grad_norm_sq=4.0,
        consensus_err=0.0,
        clip_rate=0.25,
        C_k=2.0,
        mu_k=0.5,
        sigma_k=4.0,
        accuracy=0.75,
    )
    base.update(columns)
    return tuple(base[name] for name in COLUMNS)


def make_log(rows, meta=None):
    """A log of the given records (at least one), fields named by COLUMNS."""
    return MetricsLog(meta=meta or {}, rows=np.rec.fromrecords(rows, names=COLUMNS))


def test_mean_sq_consensus_worked_example():
    # z = 0 and 2 with xbar = 1: mean of squared distances is 1
    Z = np.array([[0.0], [2.0]])
    assert mean_sq_consensus(Z, Z.mean(axis=0)) == pytest.approx(1.0, abs=1e-15)


def test_mean_sq_consensus_zero_at_agreement():
    x = np.array([1.5, -2.0, 0.25])
    assert mean_sq_consensus(np.tile(x, (4, 1)), x) == 0.0


def test_consensus_uses_raw_mean_as_reference():
    # the de-biased estimates agree at 1 but sit away from the raw-iterate
    # mean 2, which is the reference the engine logs against
    X = np.array([[0.0], [4.0]])
    Z = np.array([[1.0], [1.0]])
    assert mean_sq_consensus(Z, X.mean(axis=0)) == pytest.approx(1.0)
    log = run_from(nonprivate_config(n=2, J=5, K=1), [[0.0] * 7, [4.0] * 7])
    assert log.rows[0].consensus_err == pytest.approx(4.0 * 7)


def test_mean_sq_consensus_matches_states_path():
    # the vectorized form equals a per-node loop over (z_i, xbar)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 3))
    Z = rng.standard_normal((5, 3))
    xbar = X.mean(axis=0)
    per_node = np.mean([float((z - xbar) @ (z - xbar)) for z in Z])
    assert mean_sq_consensus(Z, xbar) == pytest.approx(per_node, abs=1e-15)


@pytest.mark.parametrize("rounds,n,d", [(1, 1, 1), (64, 20, 11), (20, 256, 11), (7, 5, 131), (3, 300, 2)])
def test_mean_sq_consensus_over_rounds_equals_each_round_bitwise(rounds, n, d):
    # a stack of rounds gives one value per round, each that round's 2-D einsum form
    rng = np.random.default_rng(n * d)
    Z, xbar = rng.standard_normal((rounds, n, d)), rng.standard_normal((rounds, d))
    got = mean_sq_consensus(Z, xbar)
    assert got.shape == (rounds,)
    for k in range(rounds):
        diff = Z[k] - xbar[k]
        want = np.einsum("ij,ij->i", diff, diff).sum() / n
        assert got[k].tobytes() == want.tobytes() == mean_sq_consensus(Z[k], xbar[k]).tobytes(), k
    # the differences taken in place into Z, as the engine does into its z_i buffer
    diff = Z - xbar[:, None, :]
    assert mean_sq_consensus(Z, xbar, out=Z).tobytes() == got.tobytes()
    assert Z.tobytes() == diff.tobytes()


def test_summarize_constant_log():
    log = make_log([make_row(k) for k in range(10)])
    s = summarize(log)
    assert s.final_loss == 1.0
    assert s.mean_grad_norm_sq == 4.0
    assert s.clip_fraction == 0.25
    assert s.final_accuracy == 0.75


def test_summarize_tracks_final_loss_and_cesaro_mean():
    rows = [make_row(k, grad_norm_sq=float(10 - k), loss=float(k)) for k in range(5)]
    s = summarize(make_log(rows))
    assert s.final_loss == 4.0
    assert s.mean_grad_norm_sq == pytest.approx(8.0)


def test_summarize_rejects_empty_log():
    empty = make_log([make_row(0)]).rows[:0]
    with pytest.raises(ValueError):
        summarize(MetricsLog(meta={}, rows=empty))


def test_csv_header_and_shape():
    log = make_log([make_row(k) for k in range(3)], {"n": 2, "seed": 7})
    text = log.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# n=2"
    assert lines[1] == "# seed=7"
    assert lines[2] == "k,loss,grad_norm_sq,consensus_err,clip_rate,C_k,mu_k,sigma_k,accuracy"
    assert len(lines) == 2 + 1 + 3
    assert lines[3].startswith("0,")


def test_csv_deterministic_bytes():
    rows = [make_row(k, loss=np.float64(k) / 3.0) for k in range(5)]
    a = make_log(rows, {"seed": 1}).csv_text()
    b = make_log(list(rows), {"seed": 1}).csv_text()
    assert a == b


def test_csv_renders_nonfinite_schedule_columns():
    row = make_row(0, C_k=float("inf"), mu_k=float("nan"), sigma_k=0.0)
    text = make_log([row]).csv_text()
    cells = text.splitlines()[1].split(",")
    assert cells[5] == "inf"
    assert cells[6] == "nan"


def test_write_csv(tmp_path):
    log = make_log([make_row(0)], {"n": 2})
    path = tmp_path / "out.csv"
    log.write_csv(path)
    assert path.read_text() == log.csv_text()


# floats of both types, signed zeros, the 1e16 cutover to exponent form, a subnormal
# and non-finite values, then values that are not floats
FLOATS = [
    np.float64(2.0), np.float64(0.1) + np.float64(0.2), 0.1, -0.0, np.float64(-0.0),
    1e16, np.float64(9999999999999998.0), np.float64(5e-324), np.float64("nan"), -np.inf,
]
OTHERS = [7, np.int64(-3), True, np.bool_(False), "dyn", ""]


def test_csv_text_writes_a_float_as_its_repr_and_any_other_value_by_str():
    values = FLOATS + OTHERS
    want = [repr(float(v)) for v in FLOATS] + [str(v) for v in OTHERS]
    meta = {f"m{i}": v for i, v in enumerate(values)}
    text = csv_text("value,index", [values, range(len(values))], meta)
    assert "np." not in text
    assert text == "".join(
        [f"# m{i}={w}\n" for i, w in enumerate(want)]
        + ["value,index\n"]
        + [f"{w},{i}\n" for i, w in enumerate(want)]
    )


def test_csv_text_writes_array_columns_as_their_values():
    text = csv_text("k,x", [np.arange(3), np.array([0.5, np.nan, 1e-300])])
    assert text == "k,x\n0,0.5\n1,nan\n2,1e-300\n"


def test_csv_text_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError):
        csv_text("a,b", [[1, 2], [3]])
