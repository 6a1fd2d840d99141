import numpy as np
import pytest

from helpers import nonprivate_config, run_from

from pushdp.metrics import MetricsLog, RoundStats, mean_sq_consensus, summarize


def make_row(k, **kwargs):
    base = dict(
        k=k,
        loss=1.0,
        grad_norm_sq=4.0,
        consensus_err=0.0,
        clip_rate=0.25,
        clip_bound=2.0,
        step_budget=0.5,
        noise_std=4.0,
        accuracy=0.75,
    )
    base.update(kwargs)
    return RoundStats(**base)


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


def test_summarize_constant_log():
    log = MetricsLog(meta={}, rows=[make_row(k) for k in range(10)])
    s = summarize(log)
    assert s.final_loss == 1.0
    assert s.mean_loss == 1.0
    assert s.min_grad_norm_sq == 4.0
    assert s.mean_grad_norm_sq == 4.0
    assert s.clip_fraction == 0.25
    assert s.final_accuracy == 0.75


def test_summarize_tracks_minimum_and_cesaro_mean():
    rows = [make_row(k, grad_norm_sq=float(10 - k), loss=float(k)) for k in range(5)]
    s = summarize(MetricsLog(meta={}, rows=rows))
    assert s.final_loss == 4.0
    assert s.min_grad_norm_sq == 6.0
    assert s.mean_grad_norm_sq == pytest.approx(8.0)


def test_summarize_rejects_empty_log():
    with pytest.raises(ValueError):
        summarize(MetricsLog(meta={}, rows=[]))


def test_csv_header_and_shape():
    log = MetricsLog(meta={"n": 2, "seed": 7}, rows=[make_row(k) for k in range(3)])
    text = log.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# n=2"
    assert lines[1] == "# seed=7"
    assert lines[2] == "k,loss,grad_norm_sq,consensus_err,clip_rate,C_k,mu_k,sigma_k,accuracy"
    assert len(lines) == 2 + 1 + 3
    assert lines[3].startswith("0,")


def test_csv_deterministic_bytes():
    rows = [make_row(k, loss=np.float64(k) / 3.0) for k in range(5)]
    a = MetricsLog(meta={"seed": 1}, rows=rows).csv_text()
    b = MetricsLog(meta={"seed": 1}, rows=list(rows)).csv_text()
    assert a == b


def test_csv_renders_nonfinite_schedule_columns():
    row = make_row(0, clip_bound=float("inf"), step_budget=float("nan"), noise_std=0.0)
    body = MetricsLog(meta={}, rows=[row]).csv_body()
    cells = body.splitlines()[1].split(",")
    assert cells[5] == "inf"
    assert cells[6] == "nan"


def test_write_csv(tmp_path):
    log = MetricsLog(meta={"n": 2}, rows=[make_row(0)])
    path = tmp_path / "out.csv"
    log.write_csv(path)
    assert path.read_text() == log.csv_text()
