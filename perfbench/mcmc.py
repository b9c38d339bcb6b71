"""Rank-normalised split R-hat and bulk ESS, independent of ``prevmap.bym``.

The benchmark scores the sampler with its own estimator, so a change to
prevmap's diagnostics cannot move the benchmark's accuracy-per-second
figures. Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021):
chains are split in half, pooled draws are replaced by normal scores of their
ranks, and the autocorrelation sum is truncated by Geyer's initial monotone
sequence.

Run as a script to compare against ``prevmap.bym`` on a ``trace.csv``:

    PYTHONPATH=src python3 perfbench/mcmc.py out/trace.csv
"""

from __future__ import annotations

import sys

import numpy as np
from scipy.special import ndtri


def _split(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.vstack((x[:, :half], x[:, x.shape[1] - half :]))


def _normal_scores(x: np.ndarray) -> np.ndarray:
    flat = x.ravel()
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(flat.size)
    ranks[order] = np.arange(1, flat.size + 1)
    # average ranks over ties
    sorted_vals = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], flat.size]
    mean_rank = (starts + ends + 1) / 2.0
    ranks[order] = np.repeat(mean_rank, ends - starts)
    return ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(x.shape)


def _rhat(x: np.ndarray) -> float:
    m, n = x.shape
    w = np.mean(np.var(x, axis=1, ddof=1))
    b = n * np.var(x.mean(axis=1), ddof=1)
    return float(np.sqrt(((n - 1) / n * w + b / n) / w))


def rhat(draws: np.ndarray) -> float:
    """max(bulk, tail) rank-normalised split R-hat of a (chains, draws) array."""
    s = _split(np.asarray(draws, dtype=float))
    bulk = _rhat(_normal_scores(s))
    tail = _rhat(_normal_scores(np.abs(s - np.median(s))))
    return max(bulk, tail)


def ess(draws: np.ndarray) -> float:
    """Bulk effective sample size of a (chains, draws) array."""
    z = _normal_scores(_split(np.asarray(draws, dtype=float)))
    m, n = z.shape
    zc = z - z.mean(axis=1, keepdims=True)
    f = np.fft.rfft(zc, 2 * n, axis=1)
    acov = np.fft.irfft(f * np.conj(f), 2 * n, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + np.var(z.mean(axis=1), ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs < 0)
    pairs = pairs[: negative[0] if negative.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)  # initial monotone sequence
    tau = max(2.0 * pairs.sum() - 1.0, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def read_trace(path) -> dict[str, np.ndarray]:
    """trace.csv -> {column: (chains, draws) array} for each hyperparameter."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#") and ln.strip()]
    header = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    chains = data[:, header.index("chain")].astype(int)
    n_chains = int(chains.max()) + 1
    return {
        name: data[:, k].reshape(n_chains, -1)
        for k, name in enumerate(header)
        if name not in ("chain", "draw")
    }


if __name__ == "__main__":
    from prevmap import bym

    for name, x in read_trace(sys.argv[1]).items():
        print(
            f"{name:>10}  ess {ess(x):9.1f} (prevmap {bym.ess(x):9.1f})  "
            f"rhat {rhat(x):.4f} (prevmap {bym.rhat(x):.4f})"
        )
