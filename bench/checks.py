"""Correctness checks on what a pushdp job wrote.

Each check returns the problems it found; none means the job passed.
The checks read only documented outputs: the metrics CSV format of the
README (``# key=value`` metadata, then ``k,loss,...,sigma_k,accuracy``), the
compare table CSV, and the accountant's printed summary and ``--table`` CSV.
"""

from __future__ import annotations

import hashlib
import math
from itertools import islice

import numpy as np
from scipy.special import ndtr

MU_TOT_RTOL = 1e-9  # recomposed total budget vs the reported mu_tot
SIGMA_RTOL = 1e-12  # sigma_k vs C_k / mu_k; both are repr-exact in the CSV
DRIFT_MAX = 1e-9  # push-sum weight-sum drift
DELTA_RTOL = 1e-6  # independent (eps, delta) transfer of the reported mu_tot


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_metrics_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    """Metadata dict, column names and the float rows of a metrics CSV."""
    meta, lines = {}, text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    columns = lines[0].split(",")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return meta, columns, rows


def _recomposed_mu_tot(mu: np.ndarray, J: int) -> float:
    return math.sqrt(float(np.expm1(np.square(mu)).sum())) / J


def _schedule_problems(C: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> list[str]:
    out = []
    if not (np.isfinite(sigma).all() and (sigma > 0).all()):
        out.append("sigma_k not finite and positive")
    elif not np.allclose(sigma, C / mu, rtol=SIGMA_RTOL, atol=0.0):
        out.append("sigma_k differs from C_k / mu_k")
    return out


def within(value: float, band: list[float]) -> bool:
    return band[0] <= value <= band[1]


def training_stats(columns: list[str], rows: np.ndarray) -> dict:
    """The figures of one engine run that ``reference.json`` bands.

    The round-mean consensus error is the spread of the nodes' iterates, which
    the injected noise dominates, so it shows whether a private leg drew its
    noise; the schedule columns only restate what the noise should have been.
    """
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    return {
        "final_loss": float(col["loss"][-1]),
        "final_accuracy": float(col["accuracy"][-1]),
        "mean_consensus_err": float(col["consensus_err"].mean()),
    }


def check_training_log(text: str, variant: str, K: int, reference: dict) -> tuple[list[str], dict]:
    """Problems in one engine run's metrics CSV, and its ``training_stats``.

    ``reference`` maps each of those stats to the band it must fall in.
    """
    meta, columns, rows = parse_metrics_csv(text)
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    problems = []
    if len(rows) != K:
        problems.append(f"{variant}: {len(rows)} rows, expected K = {K}")
    if float(meta["max_weight_sum_drift"]) > DRIFT_MAX:
        problems.append(f"{variant}: weight-sum drift {meta['max_weight_sum_drift']}")
    if variant == "nonprivate":
        if (col["sigma_k"] != 0).any() or np.isfinite(col["C_k"]).any():
            problems.append("nonprivate leg clipped or added noise")
    else:
        problems += [f"{variant}: {p}" for p in _schedule_problems(col["C_k"], col["mu_k"], col["sigma_k"])]
        recomposed = _recomposed_mu_tot(col["mu_k"], int(meta["J"]))
        if not math.isclose(recomposed, float(meta["mu_tot"]), rel_tol=MU_TOT_RTOL):
            problems.append(f"{variant}: recomposed mu_tot {recomposed!r} vs {meta['mu_tot']}")
    stats = training_stats(columns, rows)
    for name, value in stats.items():
        if not within(value, reference[name]):
            problems.append(f"{variant}: {name} {value!r} outside {reference[name]}")
    return problems, stats


def check_compare_table(path: str, stats: dict) -> list[str]:
    """The compare CSV must restate each leg's final loss and accuracy (one replicate)."""
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")
    problems = []
    for line in lines:
        row = dict(zip(names, line.split(",")))
        leg = stats.get(row["variant"])
        if (
            leg is None
            or float(row["final_loss_mean"]) != leg["final_loss"]
            or float(row["final_accuracy_mean"]) != leg["final_accuracy"]
        ):
            problems.append(f"compare table row {row['variant']} disagrees with its run")
    if len(lines) != len(stats):
        problems.append(f"compare table has {len(lines)} rows for {len(stats)} runs")
    return problems


def _printed(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_accountant(stdout: str, table_path: str, config: dict) -> list[str]:
    """Checks on ``pushdp accountant --table``: the table streams in blocks to stay small."""
    K, J = int(config["run"]["K"]), int(config["task"]["J"])
    eps, delta = float(config["privacy"]["epsilon"]), float(config["privacy"]["delta"])
    printed = _printed(stdout)
    mu_tot = float(printed["mu_tot"])
    problems = []
    rows, expm1_sum, first, last = 0, 0.0, None, None
    with open(table_path) as fh:
        if fh.readline().strip() != "k,C_k,mu_k,sigma_k":
            return ["schedule table header changed"]
        while block := list(islice(fh, 50000)):
            try:
                arr = np.array([line.split(",") for line in block], dtype=float)
            except ValueError:
                return [f"schedule table cells are not numbers: {block[0].strip()!r}"]
            if (arr[:, 0] != np.arange(rows, rows + len(arr))).any():
                problems.append("schedule table rows out of order")
            problems += _schedule_problems(arr[:, 1], arr[:, 2], arr[:, 3])
            expm1_sum += float(np.expm1(np.square(arr[:, 2])).sum())
            first = arr[0, 3] if first is None else first
            last = arr[-1, 3]
            rows += len(arr)
    if rows != K:
        problems.append(f"schedule table has {rows} rows, expected K = {K}")
    recomposed = math.sqrt(expm1_sum) / J
    if not math.isclose(recomposed, mu_tot, rel_tol=MU_TOT_RTOL):
        problems.append(f"recomposed mu_tot {recomposed!r} vs printed {mu_tot!r}")
    if not math.isclose(float(printed["composed_mu_tot"]), mu_tot, rel_tol=MU_TOT_RTOL):
        problems.append("printed composed_mu_tot disagrees with mu_tot")
    if float(printed["sigma_first"]) != first or float(printed["sigma_last"]) != last:
        problems.append("printed sigma_first/sigma_last disagree with the table")
    # Independent GDP -> (eps, delta) transfer (Dong, Roth & Su), not pushdp's own.
    back = ndtr(-eps / mu_tot + mu_tot / 2) - math.exp(eps) * ndtr(-eps / mu_tot - mu_tot / 2)
    if not math.isclose(back, delta, rel_tol=DELTA_RTOL):
        problems.append(f"mu_tot {mu_tot!r} transfers to delta {back!r}, not {delta!r}")
    return problems
