import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    full_objective,
    per_sample_gradient,
    per_sample_loss,
    predictions,
    reference_evaluate,
    reference_loss_grad,
    sigmoid,
)

from pushdp.models import (
    Dataset,
    Model,
    Task,
    _class_means,
    batched_sample_gradients,
    evaluate,
    synth_dataset,
)


def reference_gd(model, dataset, steps=3000, lr=0.2):
    """Independent full-batch descent used as the trainability oracle."""
    params = np.zeros(model.dim)
    for _ in range(steps):
        _, grad = full_objective(model, dataset, params)
        params -= lr * grad
    return params


def test_synth_dataset_shapes_and_balance():
    data = synth_dataset(3, n=6, J=40, d_in=5, classes=2)
    assert data.features.shape == (6, 40, 5)
    assert data.labels.shape == (6, 40)
    counts = np.bincount(data.labels.reshape(-1), minlength=2)
    assert counts[0] == counts[1] == 120


def test_synth_dataset_is_read_only():
    # one dataset serves every leg of a CLI command, so no run may change it
    data = synth_dataset(0, 3, 4)
    with pytest.raises(ValueError, match="read-only"):
        data.features[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        data.labels[0, 0] = 1
    X, y = data.pooled_features, data.pooled_labels
    assert not X.flags.writeable and not y.flags.writeable


def test_derived_labels_are_read_only_and_belong_to_one_dataset():
    data = synth_dataset(0, 3, 4)
    targets, positive = data.targets, data.positive
    labels = data.labels.reshape(-1)
    assert targets.dtype == np.float64 and np.array_equal(targets, labels)
    assert positive.dtype == np.bool_ and np.array_equal(positive, labels == 1)
    for array in (targets, positive):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    model = Model(kind="logistic", d_in=data.d_in)
    params = np.random.default_rng(0).standard_normal(model.dim)
    first = evaluate(model, data, params)
    second = evaluate(model, data, params)
    # derived once: every evaluation reads the same two arrays, unchanged
    assert data.targets is targets and data.positive is positive
    assert first[0] == second[0] and first[2] == second[2]
    assert np.array_equal(first[1], second[1])
    other = synth_dataset(0, 3, 4)
    assert np.array_equal(other.targets, targets)
    assert not np.shares_memory(other.targets, targets)
    assert not np.shares_memory(other.positive, positive)


def test_dataset_built_by_hand_is_read_only():
    features, labels = np.zeros((2, 3, 4)), np.ones((2, 3), dtype=int)
    data = Dataset(features=features, labels=labels, classes=2)
    arrays = (data.features, data.labels, data.pooled_features, data.pooled_labels, data.targets, data.positive)
    for array in arrays:
        assert not array.flags.writeable
    # the pooled samples are views of the shards, taken once
    assert data.pooled_features.shape == (6, 4) and np.shares_memory(data.pooled_features, features)
    assert data.pooled_labels.shape == (6,) and np.shares_memory(data.pooled_labels, labels)


def test_synth_dataset_deterministic_in_seed():
    a = synth_dataset(11, 4, 30, d_in=6)
    b = synth_dataset(11, 4, 30, d_in=6)
    c = synth_dataset(12, 4, 30, d_in=6)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_synth_dataset_means_shared_across_seeds():
    # the class structure is fixed; only the sampling varies with the seed
    a = synth_dataset(1, 2, 2000, d_in=4, classes=2)
    b = synth_dataset(2, 2, 2000, d_in=4, classes=2)
    for data in (a, b):
        X, y = data.pooled_features, data.pooled_labels
        gap = X[y == 0].mean(axis=0) - X[y == 1].mean(axis=0)
        # orthogonal means of norm 3 sit 3 * sqrt(2) apart
        assert np.linalg.norm(gap) == pytest.approx(3.0 * np.sqrt(2), rel=0.1)
    mean_a = a.pooled_features[a.pooled_labels == 0].mean(axis=0)
    mean_b = b.pooled_features[b.pooled_labels == 0].mean(axis=0)
    assert np.linalg.norm(mean_a - mean_b) < 0.5


def test_class_means_are_made_once_and_read_only():
    # every dataset build of one shape shares one array, which none of them may write
    means = _class_means(6, 3, 2.5)
    assert _class_means(6, 3, 2.5) is means and not means.flags.writeable
    q, _ = np.linalg.qr(np.random.default_rng(1799).standard_normal((6, 3)))
    assert means.tobytes() == (2.5 * q[:, :3].T).tobytes()
    with pytest.raises(ValueError):
        means += 1.0


def test_logistic_is_trainable_noise_free():
    # enough overlap that the optimum is finite and descent converges fast
    data = synth_dataset(5, n=4, J=250, d_in=8, separation=2.5)
    model = Model(kind="logistic", d_in=8)
    params = reference_gd(model, data, steps=6000, lr=0.4)
    _, grad = full_objective(model, data, params)
    assert np.linalg.norm(grad) <= 1e-4
    X, y = data.pooled_features, data.pooled_labels
    assert np.mean(predictions(model, params, X) == y) >= 0.9


def test_logistic_gradient_at_zero_params():
    # sigmoid(0) = 0.5, so the gradient at (x, y=1) is (-0.5 x, -0.5)
    model = Model(kind="logistic", d_in=4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    g = per_sample_gradient(model, np.zeros(5), x, 1)
    assert g[:4] == pytest.approx(-0.5 * x, abs=1e-15)
    assert g[4] == pytest.approx(-0.5, abs=1e-15)
    g0 = per_sample_gradient(model, np.zeros(5), x, 0)
    assert g0[:4] == pytest.approx(0.5 * x, abs=1e-15)


def test_mlp_output_bias_gradient_at_zero_params():
    # zero hidden weights give uniform softmax: grad_b2 = 1/c - onehot(y)
    model = Model(kind="mlp", d_in=3, classes=4, hidden=5)
    g = per_sample_gradient(model, np.zeros(model.dim), np.array([1.0, 2.0, 3.0]), 2)
    _, _, _, gb2 = model.unflatten(g)
    expected = np.full(4, 0.25)
    expected[2] -= 1.0
    assert gb2 == pytest.approx(expected, abs=1e-15)


def _fd_gradient(model, params, x, y, step=1e-6):
    fd = np.empty_like(params)
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += step
        down[i] -= step
        fd[i] = (per_sample_loss(model, up, x, y) - per_sample_loss(model, down, x, y)) / (
            2 * step
        )
    return fd


@pytest.mark.parametrize(
    "model",
    [
        Model(kind="logistic", d_in=6),
        Model(kind="mlp", d_in=4, classes=3, hidden=3),
    ],
    ids=["logistic", "mlp"],
)
def test_per_sample_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = rng.standard_normal(model.dim)
        x = rng.standard_normal(model.d_in)
        y = int(rng.integers(model.classes))
        exact = per_sample_gradient(model, params, x, y)
        fd = _fd_gradient(model, params, x, y)
        assert np.linalg.norm(fd - exact) <= 1e-5 * max(np.linalg.norm(exact), 1e-8)


def _gaussian_draw(model, rng, n):
    Z = rng.standard_normal((n, model.dim)) * 2.0
    Xs = rng.standard_normal((n, model.d_in)) * 3.0
    return Z, Xs, rng.integers(model.classes, size=n)


def _saturated_draw(model, rng, n):
    """Logistic draws whose bias alone sets |z| > 40, so sigmoid(z) - y is exactly 0.0
    or tiny, over +-0.0 features: the outer product x * c has -0.0 entries, which the
    single-sample matmul's one-term sum turns into 0.0."""
    Z = np.zeros((n, model.dim))
    Z[:, -1] = rng.choice([-60.0, -45.0, 45.0, 60.0], size=n)
    Xs = rng.choice([-2.0, -0.0, 0.0, 1.5], size=(n, model.d_in))
    return Z, Xs, rng.integers(model.classes, size=n)


@pytest.mark.parametrize(
    "model,draw",
    [
        (Model(kind="logistic", d_in=6), _gaussian_draw),
        (Model(kind="mlp", d_in=5, classes=2, hidden=7), _gaussian_draw),
        (Model(kind="mlp", d_in=4, classes=3, hidden=16), _gaussian_draw),
        (Model(kind="logistic", d_in=6), _saturated_draw),
    ],
    ids=["logistic", "mlp-2class", "mlp-3class", "logistic-saturated"],
)
def test_batched_sample_gradients_equal_per_sample_bitwise(model, draw):
    rng = np.random.default_rng(11)
    n = 37
    Z, Xs, ys = draw(model, rng, n)
    got = batched_sample_gradients(model, Z, Xs, ys)
    want = np.stack([per_sample_gradient(model, Z[i], Xs[i], ys[i]) for i in range(n)])
    assert got.tobytes() == want.tobytes()
    out = np.full_like(Z, np.nan)  # written in place: every entry, bit for bit
    assert batched_sample_gradients(model, Z, Xs, ys, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_full_objective_is_mean_of_per_sample(seed=9):
    data = synth_dataset(seed, n=3, J=20, d_in=5)
    model = Model(kind="logistic", d_in=5)
    rng = np.random.default_rng(0)
    params = rng.standard_normal(model.dim)
    loss, grad = full_objective(model, data, params)
    per_losses, per_grads = [], []
    for node in range(data.n):
        for j in range(data.J):
            x, y = data.features[node, j], int(data.labels[node, j])
            per_losses.append(per_sample_loss(model, params, x, y))
            per_grads.append(per_sample_gradient(model, params, x, y))
    assert loss == pytest.approx(np.mean(per_losses), abs=1e-12)
    assert grad == pytest.approx(np.mean(per_grads, axis=0), abs=1e-12)


def test_full_objective_invariant_under_node_permutation():
    data = synth_dataset(3, n=4, J=10, d_in=5)
    perm = np.array([2, 0, 3, 1])
    shuffled = Dataset(
        features=data.features[perm], labels=data.labels[perm],
        classes=data.classes,
    )
    model = Model(kind="logistic", d_in=5)
    params = np.random.default_rng(1).standard_normal(model.dim)
    loss_a, grad_a = full_objective(model, data, params)
    loss_b, grad_b = full_objective(model, shuffled, params)
    assert loss_a == pytest.approx(loss_b, rel=1e-14)
    assert grad_a == pytest.approx(grad_b, rel=1e-12)


def test_unflatten_views_round_trip():
    model = Model(kind="mlp", d_in=4, classes=3, hidden=5)
    rng = np.random.default_rng(1)
    params = rng.standard_normal(model.dim)
    W1, b1, W2, b2 = model.unflatten(params)
    rebuilt = np.concatenate([W1.ravel(), b1, W2.ravel(), b2])
    assert np.array_equal(rebuilt, params)
    # views write through to the flat vector
    W1[0, 0] = 42.0
    assert params[0] == 42.0


def test_model_dim():
    assert Model(kind="logistic", d_in=10).dim == 11
    assert Model(kind="mlp", d_in=4, classes=3, hidden=5).dim == 4 * 5 + 5 + 3 * 5 + 3


def test_model_validation():
    with pytest.raises(ValueError):
        Model(kind="logistic", d_in=4, classes=3)
    with pytest.raises(ValueError):
        Model(kind="mlp", d_in=4, classes=3, hidden=0)
    with pytest.raises(ValueError):
        Model(kind="forest", d_in=4)


def test_task_checks_dimensions():
    data = synth_dataset(0, 2, 10, d_in=5)
    with pytest.raises(ValueError):
        Task(model=Model(kind="logistic", d_in=4), dataset=data)
    with pytest.raises(ValueError, match="^model and dataset disagree on the class count$"):
        Task(model=Model(kind="mlp", d_in=5, classes=3, hidden=2), dataset=data)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        # each rule fires before the next: kind, binary, class count
        (dict(kind="cnn", d_in=1, classes=0), "task.model must be logistic or mlp, got 'cnn'"),
        (dict(kind="logistic", d_in=1, classes=1), "task.classes must be 2 for the logistic model, got 1"),
        (dict(kind="mlp", d_in=1, classes=1, hidden=0), "task.classes must be at least 2, got 1"),
    ],
)
def test_model_rules_name_their_task_keys(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Model(**kwargs)


def test_class_means_need_a_feature_dimension_per_class():
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError, match="^task.d_in must be at least 12, got 10$"):
            _class_means(10, 12, 3.0)
    with pytest.raises(ValueError, match="^task.d_in must be at least 3, got 2$"):
        synth_dataset(0, 2, 5, d_in=2, classes=3)


@pytest.mark.parametrize("n,J", [(0, 5), (2, 0), (-1, -1)])
def test_synth_dataset_needs_a_node_and_a_sample(n, J):
    with pytest.raises(ValueError, match="^need at least one node and one sample per node$"):
        synth_dataset(0, n, J)


@pytest.mark.parametrize("shape", [(4,), (2, 6), (1, 2, 5), (5, 1)])
def test_unflatten_rejects_a_wrong_shape(shape):
    model = Model(kind="logistic", d_in=4)
    with pytest.raises(ValueError, match=re.escape(f"expected 5 parameters, got {shape}")):
        model.unflatten(np.zeros(shape))


def test_evaluate_reports_loss_grad_accuracy():
    for model in (Model(kind="logistic", d_in=6), Model(kind="mlp", d_in=6, classes=3, hidden=5)):
        data = synth_dataset(2, 3, 50, d_in=6, classes=model.classes)
        for scale in (0.0, 0.3):
            params = scale * np.random.default_rng(4).standard_normal(model.dim)
            loss, grad, acc = evaluate(model, data, params)
            ref_loss, ref_grad = full_objective(model, data, params)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
            # the fused accuracy equals a separate forward pass's
            X, y = data.pooled_features, data.pooled_labels
            assert acc == float(np.mean(predictions(model, params, X) == y))


def test_mlp_trains_past_chance():
    data = synth_dataset(4, n=2, J=150, d_in=5, classes=3)
    model = Model(kind="mlp", d_in=5, classes=3, hidden=8)
    rng = np.random.default_rng(3)
    params = 0.1 * rng.standard_normal(model.dim)
    for _ in range(1500):
        _, grad = full_objective(model, data, params)
        params -= 0.3 * grad
    X, y = data.pooled_features, data.pooled_labels
    assert np.mean(predictions(model, params, X) == y) >= 0.9


def _masked_sigmoid(z):
    """The two-branch form: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_masked_form_bitwise():
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 709.8, -709.8, 37.0, -37.0, np.inf, -np.inf]
    z = np.concatenate([edges, rng.normal(0, 4, 5000), rng.normal(0, 400, 1000)])
    got = sigmoid(z)
    assert got.dtype == z.dtype
    assert np.array_equal(got.view(np.int64), _masked_sigmoid(z).view(np.int64))
    # saturates without overflow: exp(-745) is the smallest subnormal, exp(-1e308) is 0
    assert got[2] == 1.0 and 0.0 < got[3] < 1e-323 and (got[4], got[5]) == (1.0, 0.0)
    assert not np.isnan(got).any()


def _bits(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64).view(np.int64)


def _evaluate_draw(kind, d_in, n, J, shard_labels, scale, seed):
    """A model, a random dataset and parameters at ``scale``.  ``planted`` labels are
    the model's own predictions at the parameters, which then move by 5%: the low-loss
    regime, where the log1p(exp(-|z|)) terms make up most of the logistic loss."""
    classes = int(kind[4]) if kind.startswith("mlp") else 2
    if kind == "logistic":
        model = Model(kind="logistic", d_in=d_in)
    else:
        model = Model(kind="mlp", d_in=d_in, classes=classes, hidden=4)
    rng = np.random.default_rng(seed)
    features = 3.0 * rng.standard_normal((n, J, d_in))
    params = scale * rng.standard_normal(model.dim)
    if shard_labels == "planted":
        labels = predictions(model, params, features.reshape(-1, d_in)).reshape(n, J)
        params *= 1.0 + 0.05 * rng.standard_normal(model.dim)
    elif shard_labels == "mixed":
        labels = rng.integers(classes, size=(n, J))
    else:
        labels = np.full((n, J), int(shard_labels[-1]))
    return model, Dataset(features=features, labels=labels, classes=classes), params


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    # numpy's row sum adds left to right below 8 columns and pairwise from 8 up
    kind=st.sampled_from(["logistic", "mlp-2class", "mlp-3class", "mlp-7class", "mlp-9class"]),
    d_in=st.integers(1, 12),
    n=st.integers(1, 4),
    J=st.integers(1, 40),
    shard_labels=st.sampled_from(["mixed", "all 0", "all 1", "planted"]),
    # zero params give z = +-0; at 1e3 exp(-|z|) underflows to 0
    scale=st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e3]) | st.floats(0.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_equals_two_pass_reference_bitwise(kind, d_in, n, J, shard_labels, scale, seed):
    model, data, params = _evaluate_draw(kind, d_in, n, J, shard_labels, scale, seed)
    loss, grad, acc = evaluate(model, data, params)
    ref_loss, ref_grad, ref_acc = reference_evaluate(model, data, params)
    assert _bits(loss) == _bits(ref_loss)
    assert np.array_equal(_bits(grad), _bits(ref_grad))
    assert _bits(acc) == _bits(ref_acc)
    assert type(loss) is type(acc) is float


def _logaddexp_loss(z: np.ndarray, y: np.ndarray) -> float:
    """The logistic loss by numpy's ``logaddexp``, which runs scalar libm exp and log1p
    where ``np.exp`` and ``np.log1p`` may take vectorized routines that round otherwise;
    its terms are ``logaddexp(0, -|z|) + (max(z, 0) - y z)``, as ``evaluate``'s are."""
    return float(np.mean(np.logaddexp(0.0, -np.abs(z)) + (np.maximum(z, 0.0) - y * z)))


def test_planted_draws_tell_the_loss_formulas_apart():
    # the bitwise test above sees a swap of evaluate's loss formula: on its planted draws
    # the mean of log1p(exp(-|z|)) + (max(z, 0) - y z) differs from logaddexp's
    differ = 0
    for seed in range(100):
        model, data, params = _evaluate_draw("logistic", 6, 4, 40, "planted", 1.0, seed)
        X, y = data.pooled_features, data.pooled_labels
        loss, _, z = reference_loss_grad(model, params, X, y)
        differ += loss != _logaddexp_loss(z, y)
    assert differ > 0


def _mpmath_loss(z: np.ndarray, y: np.ndarray) -> mpmath.mpf:
    """Mean of log(1 + e^z) - y z in 50 significant digits."""
    with mpmath.workdps(50):
        zs = [mpmath.mpf(zi) for zi in z]
        return mpmath.fsum(mpmath.log1p(mpmath.exp(zi)) - int(yi) * zi for zi, yi in zip(zs, y)) / len(z)


def _evaluate_loss(z: np.ndarray, y: np.ndarray) -> float:
    """``evaluate``'s logistic loss at logits z: one feature equal to z, weight 1, bias 0."""
    data = Dataset(features=z.reshape(1, -1, 1), labels=y.reshape(1, -1), classes=2)
    return evaluate(Model(kind="logistic", d_in=1), data, np.array([1.0, 0.0]))[0]


@pytest.mark.parametrize("loss_of", [_evaluate_loss, _logaddexp_loss])
@pytest.mark.parametrize("seed", range(8))
def test_logistic_loss_matches_mpmath(loss_of, seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 201))
    # moderate z, |z| where exp(-|z|) is below one ulp of 1, and |z| in [700, 750],
    # where exp(-|z|) is subnormal (below 2.2e-308 from |z| = 708.4) or 0 (from 745.2)
    pools = [rng.normal(0.0, 4.0, N), rng.uniform(30.0, 40.0, N), rng.uniform(700.0, 750.0, N)]
    z = rng.choice([-1.0, 1.0], N) * np.concatenate(pools)[rng.permutation(3 * N)[:N]]
    y = rng.integers(2, size=N)
    exact = _mpmath_loss(z, y)
    assert abs(loss_of(z, y) - exact) <= 1e-14 * exact
    # labels all right: the loss is the log1p terms alone, far below max(z, 0); the
    # bracket max(z, 0) - y z is then exactly 0, so nothing cancels (summing the terms
    # as (log1p(e) + max(z, 0)) - y z misses by up to 1.3e-15 relative on these draws)
    y = (z > 0).astype(int)
    exact = _mpmath_loss(z, y)
    assert abs(loss_of(z, y) - exact) <= 1e-15 * exact
