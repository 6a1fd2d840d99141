"""Run diagnostics: per-round records, summaries, and the one CSV writer.

All optimization metrics are evaluated at the average iterate (the plain
mean of the node parameter vectors), which is the quantity the convergence
guarantees speak about.  Consensus error measures how far the de-biased node
estimates have drifted from that average.

A run's log is one numpy record array, one row per iteration, whose fields are
``COLUMNS``, which is also the CSV header:

    k, loss, grad_norm_sq, consensus_err, clip_rate, C_k, mu_k, sigma_k, accuracy

The CSV precedes it with ``#``-prefixed metadata lines.  ``csv_text`` writes every
CSV pushdp writes, each value by ``str``, which spells a float (numpy's float64 too)
as ``repr(float(v))``, so equal runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

COLUMNS = tuple("k,loss,grad_norm_sq,consensus_err,clip_rate,C_k,mu_k,sigma_k,accuracy".split(","))


def csv_text(header, columns, meta=None) -> str:
    """A ``# key=value`` line per ``meta`` entry, the ``header`` line, then one line per
    row of ``columns``, equal-length sequences or arrays, one per name in the header.
    Arrays are read by ``tolist``, as ``str`` is faster on Python floats than on numpy's."""
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(header)
    cells = (map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns)
    lines += map(",".join, zip(*cells, strict=True))
    return "\n".join(lines) + "\n"


def round_records(measured: np.ndarray, clip, budget, sigma) -> np.recarray:
    """The rows of a K-round log from the (K, 5) array ``measured``, whose columns are
    loss, grad_norm_sq, consensus_err, clip_rate and accuracy, and the C_k, mu_k and
    sigma_k columns ``clip``, ``budget`` and ``sigma``."""
    loss, grad_norm_sq, consensus_err, clip_rate, accuracy = measured.T
    columns = loss, grad_norm_sq, consensus_err, clip_rate, clip, budget, sigma, accuracy
    return np.rec.fromarrays([np.arange(len(measured)), *columns], names=COLUMNS)


@dataclass
class MetricsLog:
    """Run record: a metadata dict and ``rows``, a record array with one row per
    round whose fields are ``COLUMNS``, the CSV header."""

    meta: dict
    rows: np.recarray

    def csv_text(self) -> str:
        """``# key=value`` metadata lines, the header line, then one row per round."""
        return csv_text(",".join(COLUMNS), [self.rows[name] for name in COLUMNS], self.meta)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())


def mean_sq_consensus(Z: np.ndarray, xbar: np.ndarray, out: np.ndarray | None = None):
    """Mean over nodes of the squared distance from the average iterate, for Z (..., n, d) and
    xbar (..., d), one value per round of a stack; the differences go to ``out``, which may be Z."""
    diff = np.subtract(Z, xbar[..., None, :], out=out)
    return np.einsum("...ij,...ij->...i", diff, diff).sum(axis=-1) / diff.shape[-2]  # == np.mean


@dataclass(frozen=True)
class RunSummary:
    """A run's scalar roll-up; its fields, in order, are the columns of a sweep grid."""

    final_loss: float
    final_accuracy: float
    mean_grad_norm_sq: float
    clip_fraction: float


def summarize(log: MetricsLog) -> RunSummary:
    """Scalar roll-up of a run; the gradient mean is the Cesaro average.  A log evaluated
    at its last round only has NaN evaluation cells before it, so its mean is NaN: only
    ``run`` and ``sweep`` logs carry it."""
    if not len(log.rows):
        raise ValueError("cannot summarize an empty log")
    return RunSummary(
        final_loss=float(log.rows["loss"][-1]),
        mean_grad_norm_sq=float(log.rows["grad_norm_sq"].mean()),
        clip_fraction=float(log.rows["clip_rate"].mean()),
        final_accuracy=float(log.rows["accuracy"][-1]),
    )
