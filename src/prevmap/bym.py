"""Area-level spatial smoothing model: an exact collapsed fit and a Gibbs sampler.

Observation model, per region i on the logit scale:

    Y_i ~ Normal(theta_i, V_i)          V_i known (plug-in design variance)
    theta_i = b0 + eps_i + S_i
    eps_i ~ iid Normal(0, sig2_eps)
    S ~ ICAR(sig2_sp) over the region contiguity graph

with a flat prior on b0 and inverse-gamma hyperpriors on both variances.
The improper ICAR level is pinned by holding S at mean zero within each
connected graph component, so every component's mean of z = b0 + S is b0.

Regions with a degenerate direct estimate contribute no likelihood term:
their eps_i come from the prior, so their theta draws are posterior
predictions.

``exact_fit`` (what ``prevmap smooth`` runs) integrates eps out. Given the variances,
z is Gaussian with precision P = Q/sig2_sp + W, W = diag(1/(V_i + sig2_eps))
over the usable regions, and p(sig2 | Y) has a closed form. It evaluates
that density on a lattice of (log sig2_eps, log sig2_sp) laid along the
Hessian's eigen-axes at the mode, draws the variances from the lattice, then
z, b0 and eps from their exact conditionals, so every draw is independent.
P is factored as a banded Cholesky after a reverse Cuthill-McKee ordering.
The engine's code is in ``prevmap.exact``, loaded with ``scipy.linalg`` on
its first use.

``gibbs_fit``, the reference ``exact_fit`` is tested against, is the
conjugate Gibbs sweep (b0, all eps, all S single-site by graph-coloring
class, then the two variances), recentring S per component after every S
sweep. All chains advance in lockstep: the state
holds one row per chain and each array operation updates every chain at
once. Each chain still draws from its own stream, in the order a
chain-by-chain loop would, and its row sees that loop's arithmetic, so the
draws, and every result, are the same as running the chains one after
another. The per-region summaries and diagnostics likewise run on blocks of
regions at a time, with the arithmetic of a call per region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np
from scipy.special import expit, ndtri

from .data_model import read_table, write_table
from .direct import DirectEstimate
from .errors import ModelError
from .graph import IcarPrecision, quadratic_form

RHAT_THRESHOLD = 1.05
ESS_THRESHOLD = 100.0
GRID_EDGE_MASS_THRESHOLD = 1e-3

TRACE_CSV_COLUMNS = {
    "chain": int, "draw": int, "beta0": float, "sigma2_eps": float, "sigma2_sp": float,
}


@dataclass(frozen=True)
class Hyperpriors:
    """Inverse-gamma hyperprior parameters for both variance components."""

    a_eps: float = 0.5
    b_eps: float = 0.0005
    a_sp: float = 0.5
    b_sp: float = 0.0005

    def describe(self) -> str:
        """The priors as the fit's metadata and the smooth step's config hash write them."""
        return f"invgamma(a_eps={self.a_eps},b_eps={self.b_eps},a_sp={self.a_sp},b_sp={self.b_sp})"

    def validate(self) -> None:
        for name in ("a_eps", "b_eps", "a_sp", "b_sp"):
            if not getattr(self, name) > 0:
                raise ModelError(f"hyperprior {name} must be > 0")


@dataclass
class BymModelSpec:
    """Direct estimates plus precision structure, indexed identically."""

    estimates: list[DirectEstimate]
    precision: IcarPrecision
    priors: Hyperpriors = field(default_factory=Hyperpriors)
    fixed_sigma2_eps: float | None = None
    fixed_sigma2_sp: float | None = None

    def validate(self) -> None:
        self.priors.validate()
        est_ids = [e.region_id for e in self.estimates]
        if tuple(est_ids) != self.precision.node_ids:
            mismatch = sorted(set(est_ids) ^ set(self.precision.node_ids))
            hint = (
                f"; ids only on one side: {mismatch[:4]}"
                if mismatch
                else " (ordering differs)"
            )
            raise ModelError(
                "estimates and precision structure index different region sets "
                f"({len(est_ids)} vs {self.precision.dimension} nodes){hint}"
            )
        active = [e for e in self.estimates if e.likelihood_usable]
        if len(active) < 2:
            raise ModelError(
                f"need at least 2 non-degenerate regions, have {len(active)}"
            )
        for e in active:
            if not (math.isfinite(e.logit_y) and math.isfinite(e.var_logit)):
                raise ModelError(f"region {e.region_id!r}: non-finite logit inputs")
            if e.var_logit <= 0:
                raise ModelError(
                    f"region {e.region_id!r}: var_logit must be > 0 for a "
                    "likelihood contribution; mark the region degenerate instead"
                )
        for name, val in (
            ("fixed_sigma2_eps", self.fixed_sigma2_eps),
            ("fixed_sigma2_sp", self.fixed_sigma2_sp),
        ):
            if val is not None and not val > 0:
                raise ModelError(f"{name} must be > 0 when given")


@dataclass(frozen=True)
class McmcConfig:
    """Chain layout; retained draws per chain must be at least 500."""

    chains: int = 4
    iterations: int = 10_000
    burn_in: int = 5_000
    thin: int = 1
    seed: int = 0

    def retained_per_chain(self) -> int:
        return (self.iterations - self.burn_in + self.thin - 1) // self.thin

    def validate(self) -> None:
        if self.chains < 2:
            raise ModelError("need at least 2 chains")
        if self.thin < 1:
            raise ModelError("thin must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ModelError("burn_in must be in [0, iterations)")
        if self.retained_per_chain() < 500:
            raise ModelError(
                f"retained draws per chain = {self.retained_per_chain()}, need >= 500"
            )
        if not 0 <= self.seed < 2**64:
            raise ModelError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class Summary:
    mean: float
    median: float
    sd: float
    q025: float
    q975: float


def _sorted_quantile(srt: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(rows, q, axis=-1)`` from the rows sorted ascending.

    The arithmetic is numpy's linear method (``_get_indexes`` and ``_lerp``
    in ``numpy/lib/_function_base_impl.py``), so the bits are the same: the
    virtual index (size - 1) * q between two order statistics (both the
    last one from the last index on, where the weight becomes index + 1),
    and the interpolation taken from the upper one at a weight of 0.5 or
    more. NaN sorts last, and a row holding one gets NaN (numpy's own NaN
    can carry the payload of one of the row's NaNs).
    """
    size = srt.shape[-1]
    at = (size - 1) * np.float64(q)
    lo = int(np.floor(at)) if at < size - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    t = at - lo
    a, b = srt[:, lo], srt[:, hi]
    diff = b - a
    out = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    out[np.isnan(srt[:, -1])] = np.nan
    return out


def summarize(draws: np.ndarray, batched: bool = False) -> Summary | list[Summary]:
    """Five-number summary of a flat draw vector (empirical quantiles).

    With ``batched=True`` the first axis indexes independent draw sets; each
    is flattened and summarized on its own, and a list of summaries comes
    back in that order. The median and quantiles are read off one sort of
    each set and equal ``np.median`` and ``np.quantile`` bit for bit, but
    for the payload of a NaN.
    """
    x = np.asarray(draws, dtype=float)
    rows = x.reshape(len(x) if batched else 1, -1)
    size = rows.shape[-1]
    sd = np.std(rows, axis=-1, ddof=1) if size > 1 else np.zeros(len(rows))
    srt = np.sort(rows, axis=-1)
    # np.median's own arithmetic: the mean of the middle one or two values
    median = np.mean(srt[:, (size - 1) // 2 : size // 2 + 1], axis=-1)
    median[np.isnan(srt[:, -1])] = np.nan
    out = [
        Summary(*fields)
        for fields in zip(
            np.mean(rows, axis=-1).tolist(),
            median.tolist(),
            sd.tolist(),
            *(_sorted_quantile(srt, q).tolist() for q in (0.025, 0.975)),
        )
    ]
    return out if batched else out[0]


# ---------------------------------------------------------------------------
# Convergence diagnostics
#
# rhat and ess take a (chains, draws) array and return a float, or a
# (batch, chains, draws) array and return one value per leading index. Each
# batch item gets exactly the arithmetic of a call on it alone.
# ---------------------------------------------------------------------------


def _draw_sets(draws: np.ndarray) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2] < 2:
        raise ValueError("need a (chains, draws) array with >= 2 chains")
    return x


def _split_chains(x: np.ndarray) -> np.ndarray:
    """Split each chain in half and stack (drops the middle draw when odd)."""
    n = x.shape[-1]
    half = n // 2
    return np.concatenate((x[..., :half], x[..., n - half :]), axis=-2)


def _is_constant(x: np.ndarray) -> np.ndarray:
    return (x == x[..., :1, :1]).all(axis=(-2, -1))


def _z_table(size: int) -> np.ndarray:
    """z-score of every possible rank r = j / 2 of ``size`` values, indexed by j."""
    return ndtri((np.arange(2 * size + 1) / 2 - 0.5) / size)


def _z_scale(srt: np.ndarray, at: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rank-normalize (rows, size) draw sets, one per row, from their sorted values.

    ``srt`` holds each row's values in ascending order, and ``at`` the flat
    index in the (rows, size) input of each of them. z = ndtri((rank - 0.5)
    / N), where tied values share their mean rank as in
    ``scipy.stats.rankdata(method="average")``: a tie group at sorted
    positions first..last has rank (first + last + 2) / 2, exact in float64.
    A draw set holding a NaN maps to all NaN. Tied values get one z, so the
    order of a tie group's members in ``at`` does not matter.
    """
    size = srt.shape[-1]
    doubled_rank = np.broadcast_to(2 * np.arange(size) + 2, srt.shape)
    row, left = np.nonzero(srt[..., 1:] == srt[..., :-1])  # srt[row, left + 1] ties
    if len(left):
        # a tie group is a run of consecutive ``left`` in one row
        opens = np.ones(len(left), dtype=bool)
        opens[1:] = (left[1:] != left[:-1] + 1) | (row[1:] != row[:-1])
        group = np.cumsum(opens) - 1
        closes = np.append(opens[1:], True)
        shared = (left[opens] + left[closes] + 3)[group]  # first + last + 2
        doubled_rank = doubled_rank.copy()
        doubled_rank[row, left] = shared
        doubled_rank[row, left + 1] = shared
    z_sorted = table[doubled_rank]
    z_sorted[np.isnan(srt[..., -1])] = np.nan  # NaN sorts last
    z = np.empty(srt.shape)
    z.put(at, z_sorted)
    return z


def _rhat_classic(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    w = np.mean(np.var(x, axis=-1, ddof=1), axis=-1)
    b_over_n = np.var(np.mean(x, axis=-1), axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(((n - 1) / n * w + b_over_n) / w)
    r = np.where(w == 0.0, np.where(b_over_n > 0, np.inf, np.nan), r)
    return np.where(np.isfinite(w) & np.isfinite(b_over_n), r, np.nan)


def rhat(draws: np.ndarray) -> float | np.ndarray:
    """Rank-normalized split R-hat (max of the bulk and tail statistics).

    Returns inf when chains disagree with zero within-chain variance and nan
    when every value is identical (no information either way).
    """
    x = _draw_sets(draws)
    sets = x.reshape((-1,) + x.shape[-2:])
    if x.shape[-1] < 4:
        out = np.full(len(sets), np.nan)
    else:
        split = _split_chains(sets)
        flat = split.reshape(len(split), -1)
        rows, size = flat.shape
        table = _z_table(size)
        # sorted values and their flat indices; flat take/put beat *_along_axis
        offset = np.arange(0, rows * size, size)[:, None]
        order = np.argsort(flat, axis=-1)
        order += offset
        srt = flat.take(order)
        bulk = _rhat_classic(_z_scale(srt, order, table).reshape(split.shape))
        # the median of the unsplit draws: an odd chain's middle draw counts
        median = np.median(sets.reshape(len(sets), -1), axis=-1)[:, None]
        folded = np.abs(flat - median)
        tail_order = np.argsort(folded, axis=-1)
        tail_order += offset
        tail = _rhat_classic(_z_scale(folded.take(tail_order), tail_order, table).reshape(split.shape))
        out = np.where(_is_constant(sets), np.nan, np.fmax(bulk, tail))
    return float(out[0]) if x.ndim == 2 else out


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of the last axis, via a zero-padded FFT."""
    n = x.shape[-1]
    xc = x - np.mean(x, axis=-1, keepdims=True)
    f = np.fft.rfft(xc, 2 * n, axis=-1)
    # f first: complex products may round by operand order
    return np.fft.irfft(np.multiply(f, np.conj(f)), 2 * n, axis=-1)[..., :n] / n


def ess(draws: np.ndarray) -> float | np.ndarray:
    """Multi-chain effective sample size.

    Combined-chain autocorrelations are summed in consecutive pairs and the
    sum truncated at the first negative pair (Geyer's initial positive
    sequence); ESS = (total draws) / integrated autocorrelation time.
    """
    x = _draw_sets(draws)
    s = _split_chains(x.reshape((-1,) + x.shape[-2:]))
    m, n = s.shape[-2:]
    if n < 4:
        out = np.full(len(s), np.nan)
    else:
        acov = _autocovariance(s)
        w = np.mean(acov[..., 0], axis=-1) * n / (n - 1)
        var_plus = w * (n - 1) / n + np.var(np.mean(s, axis=-1), axis=-1, ddof=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = 1.0 - (w[:, None] - np.mean(acov, axis=-2)) / var_plus[:, None]
            rho[:, 0] = 1.0
            pairs = rho[:, 0 : n - n % 2 : 2] + rho[:, 1 : n : 2]
            # tau sums the pairs before the first negative one, left to right
            negative = pairs < 0
            stop = np.where(negative.any(axis=-1), negative.argmax(axis=-1), pairs.shape[-1])
            partial = np.cumsum(pairs, axis=-1)
            tau = np.where(stop > 0, partial[np.arange(len(s)), stop - 1], 0.0)
            out = m * n / np.maximum(2.0 * tau - 1.0, 1e-8)
        usable = ~_is_constant(s) & np.isfinite(var_plus) & (var_plus > 0)
        out = np.where(usable, out, np.nan)
    return float(out[0]) if x.ndim == 2 else out


@dataclass(frozen=True)
class ScalarDiag:
    rhat: float
    ess: float

    @property
    def ok(self) -> bool:
        return (
            math.isfinite(self.rhat)
            and self.rhat <= RHAT_THRESHOLD
            and math.isfinite(self.ess)
            and self.ess >= ESS_THRESHOLD
        )


@dataclass
class DiagnosticsReport:
    per_scalar: dict[str, ScalarDiag]
    notes: list[str] = field(default_factory=list)
    # posterior mass on the outer points of the exact engine's variance grid
    grid_edge_mass: float = 0.0

    @property
    def converged(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        names = [name for name, d in self.per_scalar.items() if not d.ok]
        if not self.grid_edge_mass <= GRID_EDGE_MASS_THRESHOLD:
            names.append("grid_edge_mass")
        return names


def diagnostics(draws_by_name: Mapping[str, np.ndarray]) -> DiagnosticsReport:
    """Split R-hat and effective sample size for each named scalar trace."""
    per_scalar: dict[str, ScalarDiag] = {}
    notes: list[str] = []
    for name, arr in draws_by_name.items():
        r, e = rhat(arr), ess(arr)
        per_scalar[name] = ScalarDiag(rhat=r, ess=e)
        if math.isnan(r):
            notes.append(f"{name}: degenerate trace (constant or too short)")
    return DiagnosticsReport(per_scalar=per_scalar, notes=notes)


# ---------------------------------------------------------------------------
# Posterior container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSummary:
    region_id: str
    theta: Summary
    prevalence: Summary
    rhat_theta: float
    ess_theta: float


@dataclass
class BymPosterior:
    """Draws, per-region summaries and diagnostics from one fit."""

    region_ids: tuple[str, ...]
    theta_draws: np.ndarray  # (chains, kept, regions)
    s_draws: np.ndarray  # (chains, kept, regions)
    beta0_draws: np.ndarray  # (chains, kept)
    sigma2_eps_draws: np.ndarray
    sigma2_sp_draws: np.ndarray
    summaries: list[RegionSummary]
    hyper_summaries: dict[str, Summary]
    report: DiagnosticsReport
    meta: dict[str, str]

    @property
    def converged(self) -> bool:
        return self.report.converged

    def rows(self, estimates: Sequence[DirectEstimate]) -> list["PosteriorRow"]:
        by_id = {e.region_id: e for e in estimates}
        rows = []
        for summary in self.summaries:
            est = by_id[summary.region_id]
            rows.append(
                PosteriorRow(
                    region_id=summary.region_id,
                    prev_mean=summary.prevalence.mean,
                    prev_median=summary.prevalence.median,
                    prev_sd=summary.prevalence.sd,
                    prev_q025=summary.prevalence.q025,
                    prev_q975=summary.prevalence.q975,
                    theta_mean=summary.theta.mean,
                    theta_sd=summary.theta.sd,
                    direct_p=est.p_hat,
                    direct_se=est.se_p,
                    n=est.n,
                    degenerate=est.degenerate,
                    rhat_theta=summary.rhat_theta,
                    ess_theta=summary.ess_theta,
                )
            )
        return rows


@dataclass(frozen=True)
class PosteriorRow:
    """One region's row of the posterior CSV."""

    region_id: str
    prev_mean: float
    prev_median: float
    prev_sd: float
    prev_q025: float
    prev_q975: float
    theta_mean: float
    theta_sd: float
    direct_p: float
    direct_se: float
    n: int
    degenerate: str
    rhat_theta: float
    ess_theta: float


# one posterior CSV column per PosteriorRow field, in field order, of the field's type
POSTERIOR_CSV_COLUMNS = get_type_hints(PosteriorRow)


# ---------------------------------------------------------------------------
# Gibbs sampler
# ---------------------------------------------------------------------------


def _greedy_coloring(n: int, edge_i: np.ndarray, edge_j: np.ndarray) -> list[np.ndarray]:
    """Partition non-isolated nodes into classes with no within-class edge."""
    nbrs: dict[int, set[int]] = {}
    for i, j in zip(edge_i, edge_j):
        nbrs.setdefault(int(i), set()).add(int(j))
        nbrs.setdefault(int(j), set()).add(int(i))
    order = sorted(nbrs, key=lambda k: (-len(nbrs[k]), k))
    color: dict[int, int] = {}
    for node in order:
        used = {color[v] for v in nbrs[node] if v in color}
        c = 0
        while c in used:
            c += 1
        color[node] = c
    n_colors = max(color.values()) + 1 if color else 0
    return [
        np.array(sorted(k for k, c in color.items() if c == cc), dtype=np.intp)
        for cc in range(n_colors)
    ]


def _neighbour_tables(
    prec: IcarPrecision, classes: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per class: (k, width) neighbour indices and weights.

    Each row lists a node's neighbours in increasing index order, the order
    of its row in a sorted sparse adjacency matrix, so a running sum along
    the row adds the terms as a sparse matrix-vector product does. Short
    rows are padded with weight 0 at the end, where adding a zero term
    leaves the sum as it is.
    """
    src = np.concatenate([prec.edge_i, prec.edge_j])
    dst = np.concatenate([prec.edge_j, prec.edge_i])
    wgt = np.concatenate([prec.edge_w, prec.edge_w])
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    tables = []
    for cls in classes:
        start = np.searchsorted(src, cls)
        count = np.searchsorted(src, cls, side="right") - start
        width = np.arange(count.max())
        real = width < count[:, None]
        slot = np.where(real, start[:, None] + width, 0)
        tables.append((dst[slot], np.where(real, wgt[slot], 0.0)))
    return tables


def _initial_variance(a: float, b: float) -> float:
    # prior mean when it exists (a > 1), otherwise the prior mode
    return b / (a - 1) if a > 1 else b / (a + 1)


# Region block size, in draws, for the per-region summaries and diagnostics:
# bounds each temporary array to 512 KiB whatever the number of regions.
_DIAG_BLOCK_DRAWS = 1 << 16


def gibbs_fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
    """Run the Gibbs sampler and return draws, summaries and diagnostics.

    All chains advance together, one state row per chain. Each chain draws
    from its own stream, derived from (seed, chain index), in the order a
    chain-by-chain loop would, and its row sees exactly that loop's
    arithmetic, so reruns with the same spec and config are bit-identical
    and a chain's draws do not depend on the other chains. Every chain
    starts from eps = Y - mean(Y) over the usable regions and S = 0.
    """
    spec.validate()
    config.validate()

    prec = spec.precision
    n = prec.dimension
    active = np.array([e.likelihood_usable for e in spec.estimates], dtype=bool)
    idx_act = np.flatnonzero(active)
    idx_inact = np.flatnonzero(~active)
    y_act = np.array([spec.estimates[i].logit_y for i in idx_act])
    v_act = np.array([spec.estimates[i].var_logit for i in idx_act])
    inv_v = 1.0 / v_act
    sum_inv_v = float(inv_v.sum())
    sd_beta0 = math.sqrt(sum_inv_v)
    k_act, k_inact = len(idx_act), len(idx_inact)

    lik_prec = np.zeros(n)
    lik_prec[idx_act] = inv_v

    pri = spec.priors
    fixed_e, fixed_s = spec.fixed_sigma2_eps, spec.fixed_sigma2_sp
    shape_e = pri.a_eps + 0.5 * k_act
    shape_s = pri.a_sp + 0.5 * prec.rank
    chains, kept = config.chains, config.retained_per_chain()

    theta_draws = np.empty((chains, kept, n))
    s_draws = np.empty((chains, kept, n))
    beta0_draws = np.empty((chains, kept))
    sig2e_draws = np.empty((chains, kept))
    sig2s_draws = np.empty((chains, kept))

    # One row per chain: beta0, sig2e, sig2s, active eps, inactive eps, S.
    state = np.zeros((chains, 3 + k_act + k_inact + n))
    beta0, sig2e, sig2s = state[:, 0], state[:, 1], state[:, 2]
    beta0_col, sig2e_col, sig2s_col = state[:, 0:1], state[:, 1:2], state[:, 2:3]
    eps_act = state[:, 3 : 3 + k_act]
    eps_inact = state[:, 3 + k_act : 3 + k_act + k_inact]
    s = state[:, 3 + k_act + k_inact :]
    eps_act[:] = y_act - float(y_act.mean())
    sig2e[:] = fixed_e if fixed_e is not None else _initial_variance(pri.a_eps, pri.b_eps)
    sig2s[:] = fixed_s if fixed_s is not None else _initial_variance(pri.a_sp, pri.b_sp)
    # position of each node's eps in the state row, after the three scalars
    eps_at = np.empty(n, dtype=np.intp)
    eps_at[idx_act] = np.arange(k_act)
    eps_at[idx_inact] = np.arange(k_act, n)
    # likelihood terms of the active regions, then a 0 for every other region
    lik_act = np.zeros((chains, k_act + 1))
    lik_at = np.minimum(eps_at, k_act)

    # One sweep's normal draws per chain, in stream order: beta0, active
    # eps, inactive eps, then S class by class. Per-node S terms that do not
    # wait on a neighbour are computed for all classes at once, in this order.
    classes = _greedy_coloring(n, prec.edge_i, prec.edge_j)
    in_classes = np.concatenate(classes) if classes else np.zeros(0, dtype=np.intp)
    z = np.empty((chains, 1 + k_act + k_inact + len(in_classes)))
    z_act = z[:, 1 : 1 + k_act]
    z_inact = z[:, 1 + k_act : 1 + k_act + k_inact]
    z_s = z[:, 1 + k_act + k_inact :]
    wdeg, lik_p, lik_s_at = prec.degree[in_classes], lik_prec[in_classes], lik_at[in_classes]
    blocks = []
    offset = 0
    for cls, (nbr, nbr_w) in zip(classes, _neighbour_tables(prec, classes)):
        blocks.append((cls, nbr, nbr_w, slice(offset, offset + len(cls))))
        offset += len(cls)
    # A lone node never moves from S = 0, so only larger components recentre.
    components = [
        slice(comp[0], comp[-1] + 1) if comp[-1] - comp[0] + 1 == len(comp) else comp
        for comp in prec.component_index
        if len(comp) > 1
    ]

    rngs = [
        np.random.Generator(np.random.PCG64(stream))
        for stream in np.random.SeedSequence(config.seed).spawn(chains)
    ]
    z_rows, eps_rows = list(z), list(eps_act)

    keep = 0
    for it in range(config.iterations):
        # (1) intercept, flat prior
        s_act = s.take(idx_act, axis=1)  # C-contiguous rows for np.dot
        resid = y_act - eps_act - s_act
        for c, (rng, z_row, resid_c) in enumerate(zip(rngs, z_rows, resid)):
            rng.standard_normal(out=z_row)
            mu0 = float(np.dot(resid_c, inv_v)) / sum_inv_v
            beta0[c] = mu0 + float(z_row[0]) / sd_beta0
        y_b0 = y_act - beta0_col

        # (2) iid effects; degenerate regions refresh from the prior
        prec_e = inv_v + 1.0 / sig2e_col
        np.add((y_b0 - s_act) * inv_v / prec_e, z_act / np.sqrt(prec_e), out=eps_act)
        if k_inact:
            np.multiply(z_inact, np.sqrt(sig2e_col), out=eps_inact)

        # (3) spatial effects, single-site conditionals by color class
        np.multiply(y_b0 - eps_act, inv_v, out=lik_act[:, :k_act])
        prec_s = wdeg / sig2s_col + lik_p
        noise_s = z_s / np.sqrt(prec_s)
        lik_s = lik_act.take(lik_s_at, axis=1)
        for cls, nbr, nbr_w, part in blocks:
            # a running sum along each padded row adds in CSR order
            nbr_sum = np.add.accumulate(nbr_w * s.take(nbr, axis=1), axis=-1)[..., -1]
            mu_s = (nbr_sum / sig2s_col + lik_s[:, part]) / prec_s[:, part]
            s[:, cls] = mu_s + noise_s[:, part]
        for comp in components:
            s_comp = s[:, comp]
            # s_comp.mean(axis=1) without the wrapper: the same sum and divide
            s[:, comp] = s_comp - np.add.reduce(s_comp, axis=1, keepdims=True) / s_comp.shape[1]

        # (4) iid variance from active effects only, then (5) spatial
        # variance from the pairwise-difference quadratic form
        qf = quadratic_form(prec, s).tolist() if fixed_s is None else None
        for c, rng in enumerate(rngs):
            if fixed_e is None:
                rate = pri.b_eps + 0.5 * float(np.dot(eps_rows[c], eps_rows[c]))
                sig2e[c] = rate / max(rng.standard_gamma(shape_e), 1e-300)
            if fixed_s is None:
                rate = pri.b_sp + 0.5 * qf[c]
                sig2s[c] = rate / max(rng.standard_gamma(shape_s), 1e-300)

        if not np.isfinite(state).all():
            bad = np.flatnonzero(~np.isfinite(state).all(axis=1))[0]
            raise RuntimeError(f"non-finite sampler state at iteration {it} of chain {bad}")

        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            eps = state[:, 3 : 3 + n].take(eps_at, axis=1)
            np.add(beta0_col + eps, s, out=theta_draws[:, keep])
            s_draws[:, keep] = s
            beta0_draws[:, keep] = beta0
            sig2e_draws[:, keep] = sig2e
            sig2s_draws[:, keep] = sig2s
            keep += 1

    return posterior_from_draws(
        spec, config, theta_draws, s_draws, beta0_draws, sig2e_draws, sig2s_draws
    )


def posterior_from_draws(
    spec: BymModelSpec,
    config: McmcConfig,
    theta_draws: np.ndarray,
    s_draws: np.ndarray,
    beta0_draws: np.ndarray,
    sig2e_draws: np.ndarray,
    sig2s_draws: np.ndarray,
    *,
    region_diagnostics: bool = True,
    grid_edge_mass: float = 0.0,
    extra_meta: Mapping[str, str] | None = None,
) -> BymPosterior:
    """A fit's posterior from its draws: summaries, diagnostics and metadata.

    Regions are summarized a block at a time. With ``region_diagnostics``
    each region's theta gets its R-hat and ESS, which join the report;
    without (independent draws) R-hat is nan and ESS the number of draws.
    The hyperparameters' R-hat and ESS, and ``grid_edge_mass``, are always
    in the report. ``extra_meta`` is appended to the fit's metadata.
    """
    prec = spec.precision
    n = prec.dimension
    chains, kept = beta0_draws.shape
    fixed_e, fixed_s = spec.fixed_sigma2_eps, spec.fixed_sigma2_sp

    # Summaries and diagnostics per region, a block of regions per call
    step = max(1, _DIAG_BLOCK_DRAWS // (chains * kept))
    theta_sums: list[Summary] = []
    prev_sums: list[Summary] = []
    rhats: list[float] = []
    esss: list[float] = []
    for lo in range(0, n, step):
        block = np.ascontiguousarray(theta_draws[:, :, lo : lo + step].transpose(2, 0, 1))
        theta_sums += summarize(block, batched=True)
        prev_sums += summarize(expit(block), batched=True)
        if region_diagnostics:
            rhats += rhat(block).tolist()
            esss += ess(block).tolist()
    if not region_diagnostics:
        rhats = [math.nan] * n
        esss = [float(chains * kept)] * n
    summaries = [
        RegionSummary(rid, theta, prev, r, e)
        for rid, theta, prev, r, e in zip(prec.node_ids, theta_sums, prev_sums, rhats, esss)
    ]

    hyper_traces: dict[str, np.ndarray] = {"beta0": beta0_draws}
    if fixed_e is None:
        hyper_traces["sigma2_eps"] = sig2e_draws
    if fixed_s is None and prec.rank > 0:
        hyper_traces["sigma2_sp"] = sig2s_draws
    per_scalar = {}
    if region_diagnostics:
        per_scalar = {f"theta[{rid}]": ScalarDiag(s.rhat_theta, s.ess_theta)
                      for rid, s in zip(prec.node_ids, summaries)}
    hyper_report = diagnostics(hyper_traces)
    per_scalar.update(hyper_report.per_scalar)
    report = DiagnosticsReport(per_scalar, hyper_report.notes, grid_edge_mass)

    hyper_summaries = {
        "beta0": summarize(beta0_draws),
        "sigma2_eps": summarize(sig2e_draws),
        "sigma2_sp": summarize(sig2s_draws),
    }
    meta = {
        "chains": str(config.chains),
        "iterations": str(config.iterations),
        "burn_in": str(config.burn_in),
        "thin": str(config.thin),
        "seed": str(config.seed),
        "priors": spec.priors.describe(),
        "style": prec.style,
        "icar_rank": str(prec.rank),
    }
    if fixed_e is not None:
        meta["fixed_sigma2_eps"] = repr(fixed_e)
    if fixed_s is not None:
        meta["fixed_sigma2_sp"] = repr(fixed_s)
    meta.update(extra_meta or {})
    return BymPosterior(
        region_ids=prec.node_ids,
        theta_draws=theta_draws,
        s_draws=s_draws,
        beta0_draws=beta0_draws,
        sigma2_eps_draws=sig2e_draws,
        sigma2_sp_draws=sig2s_draws,
        summaries=summaries,
        hyper_summaries=hyper_summaries,
        report=report,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Exact collapsed engine (in prevmap.exact)
# ---------------------------------------------------------------------------


def exact_fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
    """Independent draws from the posterior, with eps integrated out.

    The variances come from a grid over p(log sig2_eps, log sig2_sp | Y); a
    fixed variance leaves its axis out, and sig2_sp is drawn from its prior
    when no component with a usable region has an edge (it then meets no
    data). Each chain is a stream from ``SeedSequence(seed).spawn(chains)``
    with ``retained_per_chain()`` draws; draws that fall in one grid cell
    share one factorization of P. Reruns are bit-identical. Per-region
    R-hat is nan and ESS the draw count, as the draws are independent; the
    hyperparameter diagnostics and the grid's edge mass decide convergence.

    The engine is in ``prevmap.exact``, which is loaded, with
    ``scipy.linalg``, on the first call, so that importing the CLI does not
    load ``scipy.linalg``. While it runs, OpenBLAS uses one thread in the
    calling thread (its thread-local setting, restored afterwards).
    """
    from .exact import fit

    return fit(spec, config)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------


def write_posterior_csv(
    rows: Sequence[PosteriorRow],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    columns = [[getattr(r, name) for r in rows] for name in POSTERIOR_CSV_COLUMNS]
    write_table(path, POSTERIOR_CSV_COLUMNS, columns, metadata)


def read_posterior_csv(path: str | Path) -> list[PosteriorRow]:
    return [PosteriorRow(**row) for row in read_table(path, POSTERIOR_CSV_COLUMNS)]


def write_trace_csv(
    posterior: BymPosterior,
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Hyperparameter traces, one row per (chain, retained draw)."""
    chains, kept = posterior.beta0_draws.shape
    columns = [
        np.repeat(np.arange(chains), kept),
        np.tile(np.arange(kept), chains),
        posterior.beta0_draws.ravel(),
        posterior.sigma2_eps_draws.ravel(),
        posterior.sigma2_sp_draws.ravel(),
    ]
    write_table(path, TRACE_CSV_COLUMNS, columns, metadata)
