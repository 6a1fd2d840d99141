"""Synthetic classification tasks with exact per-sample gradients.

The data generator draws class-conditional Gaussian blobs around fixed,
mutually orthogonal class means (the means depend only on the feature
dimension and class count, never on the sampling seed), shuffles, and
partitions the samples into equally sized disjoint node shards.

Two model families cover the convex and non-convex regimes:

* ``logistic``: binary logistic regression with a bias term, parameters
  flattened as (weights..., bias), trained with sigmoid cross-entropy.
* ``mlp``: one tanh hidden layer into a softmax output, parameters
  flattened as (W1, b1, W2, b2), trained with softmax cross-entropy.

Gradients are hand-derived and vectorized.  ``evaluate`` averages the loss and gradient over
every sample at an average iterate or a block's stack of them, which it lays out itself; it takes the
logistic model at the signed margin u = (1 - 2y) z, where the loss is softplus(u) and no term cancels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_MEANS_SEED = 1799  # class means are fixed across dataset seeds
EVAL_ROUNDS = 4  # rows of a logistic stack's groups: at N = 5000 a round costs 0.65x a lone row's, no less at 8


@dataclass(frozen=True)
class Dataset:
    """Disjoint node shards: features (n, J, d_in) and integer labels (n, J), plus all samples pooled,
    ``pooled_features`` (n*J, d_in) and ``pooled_labels``, as views taken once; all read-only."""

    features: np.ndarray
    labels: np.ndarray
    classes: int
    pooled_features: np.ndarray = field(init=False, repr=False, compare=False)
    pooled_labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pooled_features", self.features.reshape(-1, self.features.shape[2]))
        object.__setattr__(self, "pooled_labels", self.labels.reshape(-1))
        for name in ("features", "labels", "pooled_features", "pooled_labels"):
            getattr(self, name).setflags(write=False)  # one dataset serves every run of a CLI command

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def J(self) -> int:
        return self.features.shape[1]

    @property
    def d_in(self) -> int:
        return self.features.shape[2]


@functools.cache
def _class_means(d_in: int, classes: int, separation: float) -> np.ndarray:
    """Orthonormal directions scaled to ``separation``, fixed for all seeds; made once, read-only."""
    if d_in < classes:
        raise ValueError(f"task.d_in must be at least {classes}, got {d_in}")
    q, _ = np.linalg.qr(np.random.default_rng(_MEANS_SEED).standard_normal((d_in, classes)))
    means = separation * q[:, :classes].T
    means.setflags(write=False)
    return means


def synth_dataset(
    seed: int,
    n: int,
    J: int,
    d_in: int = 10,
    classes: int = 2,
    separation: float = 3.0,
) -> Dataset:
    """Sample, shuffle, and shard a blob classification problem.

    Sample i has class i % classes before the shuffle, so labels are balanced up to
    rounding; the class means are added in place on the normals.  Every shard gets
    exactly J samples, and the draw is fully determined by ``seed`` (the blob
    means are shared across seeds so different seeds resample the same task).
    """
    if n < 1 or J < 1:
        raise ValueError("need at least one node and one sample per node")
    means = _class_means(d_in, classes, separation)
    rng = np.random.default_rng(seed)
    total = n * J
    features = rng.standard_normal((total, d_in))
    whole = total - total % classes
    features[:whole].reshape(-1, classes, d_in)[:] += means
    features[whole:] += means[: total % classes]
    order = rng.permutation(total)
    features, labels = features.take(order, axis=0), order % classes
    return Dataset(
        features=features.reshape(n, J, d_in),
        labels=labels.reshape(n, J),
        classes=classes,
    )


@dataclass(frozen=True)
class Model:
    """Architecture descriptor; parameters travel as one flat float vector."""

    kind: str
    d_in: int
    classes: int = 2
    hidden: int = 0

    def __post_init__(self):
        if self.kind not in ("logistic", "mlp"):
            raise ValueError(f"task.model must be logistic or mlp, got {self.kind!r}")
        if self.kind == "logistic" and self.classes != 2:
            raise ValueError(f"task.classes must be 2 for the logistic model, got {self.classes}")
        if self.classes < 2:
            raise ValueError(f"task.classes must be at least 2, got {self.classes}")
        if self.kind == "mlp" and self.hidden < 1:
            raise ValueError("mlp needs a positive hidden width")

    @functools.cached_property
    def dim(self) -> int:
        if self.kind == "logistic":
            return self.d_in + 1
        h = self.hidden
        return h * self.d_in + h + self.classes * h + self.classes

    def unflatten(self, params: np.ndarray):
        """Views into the flat vector; writing through them is intentional.

        An (n, dim) stack unflattens row by row: each view gains a leading n.
        """
        if params.shape[-1:] != (self.dim,) or params.ndim > 2:
            raise ValueError(f"expected {self.dim} parameters, got {params.shape}")
        if self.kind == "logistic":
            return params[..., : self.d_in], params[..., self.d_in]
        h, d, c, lead = self.hidden, self.d_in, self.classes, params.shape[:-1]
        ends = np.cumsum([0, h * d, h, c * h, c])
        W1, b1, W2, b2 = (params[..., a:b] for a, b in zip(ends[:-1], ends[1:]))
        return W1.reshape(*lead, h, d), b1, W2.reshape(*lead, c, h), b2


def batched_sample_gradients(
    model: Model, Z: np.ndarray, Xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Row i is the gradient at sample (Xs[i], ys[i]) and parameters Z[i], into ``out`` if given.

    Equals a stack of single-sample two-pass loss-gradient calls bit for bit,
    signs of zero included: each product and sum keeps the single-sample shape
    as a batched matmul, a ``vecdot`` (the ddot a one-row matmul runs) or a
    reduction slice, so numpy runs it by the same routine (``einsum`` or a
    row-wise ``sum`` add in another order and differ by an ulp).
    """
    grads = np.empty_like(Z) if out is None else out
    if model.kind == "logistic":
        w, b = model.unflatten(Z)
        z = np.vecdot(Xs, w)  # the ddot a (1, d) @ (d, 1) matmul runs
        z += b
        e = np.copysign(z, -1.0)  # -|z|
        np.exp(e, out=e)
        coeff = np.divide(np.maximum(e, z >= 0, out=z), np.add(e, 1.0, out=e), out=z)
        coeff -= ys  # sigmoid(z) - y, kept: evaluate's sigmoid(u) here would move the bits of every trajectory
        # -0.0 + 0.0 is 0.0, as in the one-term matmul x * c; multiplied contiguously first
        np.add(Xs * coeff[:, None], 0.0, out=grads[:, : model.d_in])
        grads[:, model.d_in] = coeff
        return grads
    W1, b1, W2, b2 = model.unflatten(Z)
    hidden = np.tanh((Xs[:, None, :] @ W1.transpose(0, 2, 1))[:, 0] + b1)
    logits = (hidden[:, None, :] @ W2.transpose(0, 2, 1))[:, 0] + b2
    dlogits = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits /= dlogits.sum(axis=1, keepdims=True)
    dlogits[np.arange(len(Z)), ys] -= 1.0
    dpre = (dlogits[:, None, :] @ W2)[:, 0] * (1.0 - hidden**2)
    gW1, gb1, gW2, gb2 = model.unflatten(grads)
    gW1[:] = dpre[:, :, None] @ Xs[:, None, :]
    gb1[:] = dpre[:, None, :].sum(axis=1)  # a one-term sum turns -0.0 into 0.0
    gW2[:] = dlogits[:, :, None] @ hidden[:, None, :]
    gb2[:] = dlogits[:, None, :].sum(axis=1)
    return grads


@dataclass(frozen=True)
class Task:
    """A model bound to a sharded dataset; what one engine run optimizes."""

    model: Model
    dataset: Dataset

    def __post_init__(self):
        if self.model.d_in != self.dataset.d_in:
            raise ValueError("model and dataset disagree on the feature dimension")
        if self.model.classes != self.dataset.classes:
            raise ValueError("model and dataset disagree on the class count")

    @functools.cached_property
    def logistic_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Made by the first logistic evaluation, in engine time, and held read-only for every run of the task:
        the C-contiguous (d_in + 1, n*J) operand F = (1 - 2y) [X^T; 1], and ``below``, 5e-324 where y = 0, else 0."""
        X, y = self.dataset.pooled_features, self.dataset.pooled_labels
        F, below = np.empty((X.shape[1] + 1, len(y))), np.subtract(1, y, dtype=np.int64)  # 1 where y = 0
        np.multiply(X.T, np.subtract(below, y, out=F[-1]), out=F[:-1])  # by the sign 1 - 2y: exact
        for array in (F, below):
            array.setflags(write=False)
        return F, below.view(np.float64)  # the int 1's bits are the float 5e-324


def evaluate(task: Task, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loss, gradient and accuracy over the pooled dataset at a (dim,) vector, or (m,), (m, dim) and (m,)
    at an (m, dim) stack, each row in one forward pass whose scores give the accuracy.

    The logistic model reads the task's F = (1 - 2y) [X^T; 1]: u = theta F is the signed margin (1 - 2y) z,
    bias included.  A vector runs through GEMVs; a stack in groups of exactly EVAL_ROUNDS rows, zero rows
    padding the last, through one GEMM per product, where a row's bits depend neither on its place nor on
    the other rows (at another height they may).  e = exp(-|u|) serves the loss terms softplus(u) =
    ``max(u, 0) + log1p(e)`` and sigmoid(u) = ``max(e, u >= 0) / (1 + e)``, whose product with F^T is the
    gradient; a hit is u < ``below``, so z = 0 predicts class 0.  A row equals its two-pass formulas bit for
    bit.  The MLP goes row by row."""
    model, dim, X, y = task.model, task.model.dim, task.dataset.pooled_features, task.dataset.pooled_labels
    if params.shape[-1:] != (dim,) or params.ndim > 2:
        raise ValueError(f"expected {dim} parameters, got {params.shape}")
    N = len(y)
    groups = params.reshape(-1, dim)  # a vector, or an MLP stack row by row
    if model.kind == "logistic" and params.ndim == 2:  # zero rows pad the last group
        groups = np.pad(params, ((0, -len(params) % EVAL_ROUNDS), (0, 0))).reshape(-1, EVAL_ROUNDS, dim)
    out = np.empty((*groups.shape[:-1], dim + 2))  # each row's loss, accuracy and gradient
    if model.kind == "logistic":  # work in place, in arrays that every group reuses
        F, below = task.logistic_arrays
        u = np.empty((*groups.shape[1:-1], N))  # apart from the rest: one block of four raised the peak RSS
        (e, terms, buf), mask = np.empty((3, *u.shape)), np.empty(u.shape, dtype=bool)
        for rows, cells in zip(groups, out):
            np.matmul(rows, F, out=u)
            np.exp(np.negative(np.abs(u, out=e), out=e), out=e)  # exp(-|u|), shared by the loss and the sigmoid
            np.maximum(u, 0.0, out=terms)
            terms += np.log1p(e, out=buf)
            coeff = np.maximum(e, np.greater_equal(u, 0.0, out=mask), out=buf)
            coeff /= np.add(e, 1.0, out=e)  # sigmoid(u): no cancelling, unlike sigmoid(z) - 1 at y = 1
            np.add.reduce(terms, axis=-1, out=cells[..., 0])  # each row's own sum, as np.mean takes it
            np.matmul(coeff, F.T, out=cells[..., 2:])
            np.less(u, below, out=mask)
            cells.reshape(-1, dim + 2)[:, 1] = [np.count_nonzero(row) for row in mask.reshape(-1, N)]  # beats axis=1
            cells /= N  # a row's loss, hits and gradient at once; hits / N is np.mean's float
    else:  # the MLP, row by row
        for rows, cells in zip(groups, out):
            W1, b1, W2, b2 = model.unflatten(rows)
            hidden = np.tanh(X @ W1.T + b1)
            logits = hidden @ W2.T + b2
            shifted = logits - logits.max(axis=1, keepdims=True)
            dlogits = np.exp(shifted)  # one exp and one row sum serve the loss and the softmax
            norm = dlogits.sum(axis=1, keepdims=True)
            cells[0] = np.mean(np.log(norm[:, 0]) - shifted[np.arange(N), y])
            dlogits /= norm
            dlogits[np.arange(N), y] -= 1.0
            dlogits /= N
            dpre = (dlogits @ W2) * (1.0 - hidden**2)
            gW1, gb1, gW2, gb2 = model.unflatten(cells[2:])
            gW1[:] = dpre.T @ X
            gb1[:] = dpre.sum(axis=0)
            gW2[:] = dlogits.T @ hidden
            gb2[:] = dlogits.sum(axis=0)
            cells[1] = np.mean(logits.argmax(axis=1) == y)
    out = out.reshape(-1, dim + 2)[: len(params)] if params.ndim == 2 else out[0]
    return out[..., 0], out[..., 2:], out[..., 1]
