"""Run diagnostics: per-round records, summaries, and CSV serialization.

All optimization metrics are evaluated at the average iterate (the plain
mean of the node parameter vectors), which is the quantity the convergence
guarantees speak about.  Consensus error measures how far the de-biased node
estimates have drifted from that average.

The CSV layout is one row per iteration with the fixed column set

    k, loss, grad_norm_sq, consensus_err, clip_rate, C_k, mu_k, sigma_k, accuracy

preceded by ``#``-prefixed metadata lines.  Floats are written with ``repr`` so equal
runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class RoundStats:
    """One iteration's diagnostics, evaluated before the round's update."""

    k: int
    loss: float
    grad_norm_sq: float
    consensus_err: float
    clip_rate: float
    clip_bound: float
    step_budget: float
    noise_std: float
    accuracy: float


@dataclass
class MetricsLog:
    """Append-only run record: metadata dict plus one RoundStats per round."""

    meta: dict
    rows: list[RoundStats]

    def csv_text(self) -> str:
        """``# key=value`` metadata lines, the header line, then one row per round."""
        lines = [f"# {key}={value}" for key, value in self.meta.items()]
        lines.append("k,loss,grad_norm_sq,consensus_err,clip_rate,C_k,mu_k,sigma_k,accuracy")
        for r in self.rows:
            cells = [
                str(r.k),
                repr(float(r.loss)),
                repr(float(r.grad_norm_sq)),
                repr(float(r.consensus_err)),
                repr(float(r.clip_rate)),
                repr(float(r.clip_bound)),
                repr(float(r.step_budget)),
                repr(float(r.noise_std)),
                repr(float(r.accuracy)),
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())


def mean_sq_consensus(Z: np.ndarray, xbar: np.ndarray) -> float:
    """Mean over nodes of the squared distance from the average iterate."""
    diff = Z - xbar
    return float(np.einsum("ij,ij->i", diff, diff).sum() / len(diff))  # == np.mean


@dataclass(frozen=True)
class RunSummary:
    final_loss: float
    mean_grad_norm_sq: float
    clip_fraction: float
    final_accuracy: float


def summarize(log: MetricsLog) -> RunSummary:
    """Scalar roll-up of a run; the gradient mean is the Cesaro average."""
    if not log.rows:
        raise ValueError("cannot summarize an empty log")
    grads = np.array([r.grad_norm_sq for r in log.rows])
    clips = np.array([r.clip_rate for r in log.rows])
    return RunSummary(
        final_loss=float(log.rows[-1].loss),
        mean_grad_norm_sq=float(grads.mean()),
        clip_fraction=float(clips.mean()),
        final_accuracy=log.rows[-1].accuracy,
    )
