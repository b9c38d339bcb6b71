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

``exact_fit`` (what ``prevmap smooth`` runs) integrates eps out: given the
variances, z is Gaussian with precision P = Q/sig2_sp + W, W = diag(1/(V_i
+ sig2_eps)) over the usable regions, factored as a band, and each region's
theta is a Gaussian mixture over a grid of the variances, summarized
exactly. ``gibbs_fit``, the reference ``exact_fit`` is tested against, is a
block Gibbs sampler on the same band factor. Both engines' Gaussian kernel
is in ``prevmap.exact``, loaded on first use with only two of scipy's
compiled modules; ``gibbs_fit``'s summaries import ``scipy.special`` when
they run, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .data_model import Coded, read_table, write_table
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
            if not 0 < getattr(self, name) < math.inf:
                raise ModelError(f"hyperprior {name} must be finite and > 0")


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


def summarize(draws: np.ndarray, batched: bool = False) -> Summary | list[Summary]:
    """Five-number summary of a flat draw vector (empirical quantiles).

    With ``batched=True`` the first axis indexes independent draw sets; each
    is flattened and summarized on its own, and a list of summaries comes
    back in that order. The median and the 2.5% and 97.5% points are
    ``np.median`` and ``np.quantile`` (type 7) of each set.
    """
    x = np.asarray(draws, dtype=float)
    rows = x.reshape(len(x) if batched else 1, -1)
    sd = np.std(rows, axis=-1, ddof=1) if rows.shape[-1] > 1 else np.zeros(len(rows))
    # one quantile call per probability: a call with both can order zeros of
    # opposite sign differently and so change the sign of a zero result
    out = [
        Summary(*fields)
        for fields in zip(
            np.mean(rows, axis=-1).tolist(),
            np.median(rows, axis=-1).tolist(),
            sd.tolist(),
            np.quantile(rows, 0.025, axis=-1).tolist(),
            np.quantile(rows, 0.975, axis=-1).tolist(),
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
    from scipy.special import ndtri

    # (j / 2 - 0.5) / size, in place
    p = np.arange(2 * size + 1, dtype=float)
    p /= 2
    p -= 0.5
    p /= size
    return ndtri(p, out=p)


def _z_scale(srt: np.ndarray, at: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rank-normalize (rows, size) draw sets, one per row, from their sorted values.

    ``srt`` holds each row's values in ascending order, and ``at`` the flat
    index in the (rows, size) input of each of them. z = ndtri((rank - 0.5)
    / N), where tied values share their mean rank as in
    ``scipy.stats.rankdata(method="average")``: a tie group at sorted
    positions first..last has rank (first + last + 2) / 2, exact in float64.
    A draw set holding a NaN maps to all NaN. Tied values get one z, so the
    order of a tie group's members in ``at`` does not matter. ``srt`` is
    overwritten with the sorted z-scores, to hold one array less.
    """
    size = srt.shape[-1]
    doubled_rank = np.broadcast_to(np.arange(2, 2 * size + 2, 2), srt.shape)
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
    nan_sets = np.isnan(srt[..., -1])  # NaN sorts last
    # mode="clip" writes straight into out, where "raise" buffers a copy
    z_sorted = np.take(table, doubled_rank, out=srt, mode="clip")
    del doubled_rank
    z_sorted[nan_sets] = np.nan
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
        bulk = _rhat_classic(_z_scale(flat.take(order), order, table).reshape(split.shape))
        del order  # each pass's sort is freed before the next one's is made
        # the median of the unsplit draws: an odd chain's middle draw counts
        median = np.median(sets.reshape(len(sets), -1), axis=-1)[:, None]
        folded = flat - median
        np.abs(folded, out=folded)
        order = np.argsort(folded, axis=-1)
        order += offset
        srt = folded.take(order)
        del folded
        tail = _rhat_classic(_z_scale(srt, order, table).reshape(split.shape))
        out = np.where(_is_constant(sets), np.nan, np.fmax(bulk, tail))
    return float(out[0]) if x.ndim == 2 else out


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of the last axis, via a zero-padded FFT."""
    n = x.shape[-1]
    f = np.fft.rfft(x - np.mean(x, axis=-1, keepdims=True), 2 * n, axis=-1)
    # f first: complex products may round by operand order; in place, as
    # f is the largest buffer here
    np.multiply(f, np.conj(f), out=f)
    return np.fft.irfft(f, 2 * n, axis=-1)[..., :n] / n


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
    per_scalar = {name: ScalarDiag(rhat(x), ess(x)) for name, x in draws_by_name.items()}
    notes = [f"{name}: degenerate trace (constant or too short)"
             for name, d in per_scalar.items() if math.isnan(d.rhat)]
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
    """What one fit returns: the draws prevmap reads, summaries and diagnostics.

    The draws are the three hyperparameters b0, sig2_eps and sig2_sp, and,
    from ``gibbs_fit``, theta per region; ``exact_fit`` computes its region
    summaries without draws of theta, and its ``theta_draws`` is None. The
    spatial effect S and eps are steps toward theta, and are not kept.
    ``summaries`` holds each region's theta and prevalence summary in graph
    node order, with its R-hat and ESS. ``report`` holds the diagnostics
    that decide ``converged``, and ``meta`` holds the fit's settings as its
    artifacts' headers write them.
    """

    theta_draws: np.ndarray | None  # (chains, kept, regions); None from exact_fit
    beta0_draws: np.ndarray  # (chains, kept)
    sigma2_eps_draws: np.ndarray
    sigma2_sp_draws: np.ndarray
    summaries: list[RegionSummary]
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


def _initial_variance(a: float, b: float) -> float:
    # prior mean when it exists (a > 1), otherwise the prior mode
    return b / (a - 1) if a > 1 else b / (a + 1)


# Region block size, in draws, for the per-region summaries and diagnostics:
# bounds each temporary array to 512 KiB whatever the number of regions.
_DIAG_BLOCK_DRAWS = 1 << 16


def gibbs_fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
    """Run the Gibbs sampler and return draws, summaries and diagnostics.

    A chain's state is its two variances. Each sweep draws (b0, S) with eps
    integrated out, from the band factor of P (``prevmap.exact._Collapsed.draw``),
    then eps given z = b0 + S region by region, then each variance from its
    inverse-gamma conditional: a block Gibbs scan (Knorr-Held & Rue 2002).
    The chains share each sweep's calls; each draws from its own stream,
    derived from (seed, chain index), with the bits it has in a run of its
    own, so reruns are bit-identical and a chain's draws do not depend on
    the other chains. Every chain starts at the same variances, each
    prior's mean (or mode, where the mean is infinite) or the fixed value:
    the first sweep draws b0, S and eps exactly given them. A state that
    turns non-finite, or a P singular in floating point, raises a
    ``RuntimeError`` naming the iteration and the chain. The per-region
    summaries and diagnostics run on blocks of regions at a time, with the
    arithmetic of a call per region.
    """
    from .exact import _Collapsed, _NotPositiveDefinite, _one_blas_thread

    spec.validate()
    config.validate()

    prec = spec.precision
    n = prec.dimension
    kernel = _Collapsed(spec)
    usable = np.flatnonzero(kernel.usable)
    # 1/V and Y/V, 0 where not usable
    inv_v = np.where(kernel.usable, 1.0 / kernel.v, 0.0)
    inv_v_y = inv_v * kernel.y
    pri = spec.priors
    fixed_e, fixed_s = spec.fixed_sigma2_eps, spec.fixed_sigma2_sp
    shape_e = pri.a_eps + 0.5 * len(usable)
    shape_s = pri.a_sp + 0.5 * prec.rank
    chains, kept = config.chains, config.retained_per_chain()

    theta_draws = np.empty((chains, kept, n))
    beta0_draws, sig2e_draws, sig2s_draws = np.empty((3, chains, kept))
    # one row per chain: sig2_eps, sig2_sp
    variances = np.empty((chains, 2))
    variances[:, 0] = fixed_e if fixed_e is not None else _initial_variance(pri.a_eps, pri.b_eps)
    variances[:, 1] = fixed_s if fixed_s is not None else _initial_variance(pri.a_sp, pri.b_sp)
    # one sweep's normals per chain, in stream order: the (b0, z) draw's, then eps
    noise = np.empty((chains, 1 + 2 * n))
    rngs = [
        np.random.Generator(np.random.PCG64(stream))
        for stream in np.random.SeedSequence(config.seed).spawn(chains)
    ]

    keep = 0
    with _one_blas_thread():
        for it in range(config.iterations):
            for rng, row in zip(rngs, noise):
                rng.standard_normal(out=row)
            try:
                b0, z = kernel.draw(variances, noise[:, : 1 + n])
            except _NotPositiveDefinite as exc:
                chain = exc.column // len(kernel.live)
                raise RuntimeError(
                    f"precision singular in floating point at iteration {it} of chain {chain}"
                ) from None
            # eps | z: N(var_eps (Y - z) / V, var_eps), var_eps = 1 / (1/sig2_eps
            # + 1/V), where usable; N(0, sig2_eps) elsewhere
            var_eps = 1.0 / (1.0 / variances[:, :1] + inv_v)
            eps = np.sqrt(var_eps)
            eps *= noise[:, 1 + n :]
            eps += var_eps * (inv_v_y - inv_v * z)
            rate_e = pri.b_eps + 0.5 * np.add.reduce(np.square(eps.take(usable, axis=1)), axis=1)
            rate_s = pri.b_sp + 0.5 * quadratic_form(prec, z - b0[:, None])
            for c, rng in enumerate(rngs):
                if fixed_e is None:
                    variances[c, 0] = rate_e[c] / max(rng.standard_gamma(shape_e), 1e-300)
                if fixed_s is None:
                    variances[c, 1] = rate_s[c] / max(rng.standard_gamma(shape_s), 1e-300)
            theta = z + eps
            if not (np.isfinite(theta).all() and np.isfinite(variances).all()):
                finite = np.isfinite(theta).all(axis=1) & np.isfinite(variances).all(axis=1)
                raise RuntimeError(f"non-finite sampler state at iteration {it} of chain {finite.argmin()}")

            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                theta_draws[:, keep] = theta
                beta0_draws[:, keep] = b0
                sig2e_draws[:, keep], sig2s_draws[:, keep] = variances.T
                keep += 1

    return posterior_from_draws(spec, config, theta_draws, beta0_draws, sig2e_draws, sig2s_draws)


def posterior_from_draws(
    spec: BymModelSpec,
    config: McmcConfig,
    theta_draws: np.ndarray,
    beta0_draws: np.ndarray,
    sig2e_draws: np.ndarray,
    sig2s_draws: np.ndarray,
) -> BymPosterior:
    """``gibbs_fit``'s posterior from its draws: summaries, diagnostics and metadata.

    Regions are summarized a block at a time, and each region's theta gets
    its R-hat and ESS, which join the hyperparameters' in the report.
    """
    from scipy.special import expit

    prec = spec.precision
    n = prec.dimension
    chains, kept = beta0_draws.shape

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
        rhats += rhat(block).tolist()
        esss += ess(block).tolist()
    summaries = [
        RegionSummary(rid, theta, prev, r, e)
        for rid, theta, prev, r, e in zip(prec.node_ids, theta_sums, prev_sums, rhats, esss)
    ]
    hyper_traces = {"beta0": beta0_draws}
    if spec.fixed_sigma2_eps is None:
        hyper_traces["sigma2_eps"] = sig2e_draws
    if spec.fixed_sigma2_sp is None and prec.rank > 0:
        hyper_traces["sigma2_sp"] = sig2s_draws
    hyper = diagnostics(hyper_traces)
    per_scalar = {f"theta[{s.region_id}]": ScalarDiag(s.rhat_theta, s.ess_theta) for s in summaries}
    per_scalar.update(hyper.per_scalar)
    return posterior_from_summaries(
        spec, config, summaries, beta0_draws, sig2e_draws, sig2s_draws,
        DiagnosticsReport(per_scalar, hyper.notes), theta_draws=theta_draws,
    )


def posterior_from_summaries(
    spec: BymModelSpec,
    config: McmcConfig,
    summaries: list[RegionSummary],
    beta0_draws: np.ndarray,
    sig2e_draws: np.ndarray,
    sig2s_draws: np.ndarray,
    report: DiagnosticsReport,
    *,
    theta_draws: np.ndarray | None = None,
    extra_meta: Mapping[str, str] | None = None,
) -> BymPosterior:
    """A fit's posterior from its region summaries, hyperparameter draws and report.

    ``extra_meta`` is appended to the fit's metadata.
    """
    prec = spec.precision
    fixed_e, fixed_s = spec.fixed_sigma2_eps, spec.fixed_sigma2_sp
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
        theta_draws=theta_draws,
        beta0_draws=beta0_draws,
        sigma2_eps_draws=sig2e_draws,
        sigma2_sp_draws=sig2s_draws,
        summaries=summaries,
        report=report,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Exact collapsed engine (in prevmap.exact)
# ---------------------------------------------------------------------------


def exact_fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
    """The posterior with eps integrated out, on a grid over the variances.

    The variances take a grid's points over p(log sig2_eps, log sig2_sp | Y);
    a fixed variance leaves its axis out. Given them, theta is Gaussian, so
    each region's summary is that of a Gaussian mixture over the grid, with
    no Monte Carlo error: mean and sd in closed form, median and 95%
    interval by Newton's method on the mixture's CDF, the prevalence's mean
    and sd by Gauss-Hermite quadrature. sig2_sp is drawn from its prior when
    no component with a usable region has an edge (it then meets no data),
    and the regions it moves are summarized over those draws. Only b0 and
    the variances are drawn: each chain is a stream from
    ``SeedSequence(seed).spawn(chains)`` with ``retained_per_chain()``
    independent draws. ``theta_draws`` is None. Reruns are bit-identical.
    Independent draws leave nothing for R-hat or ESS to find, so the fit runs
    neither: per-region R-hat is nan and ESS the number of draws, and the
    report holds the grid's checks, whose edge mass decides convergence.

    The engine is in ``prevmap.exact``, which is loaded on the first call,
    so that importing the CLI loads no scipy module. It loads scipy's
    compiled LAPACK and special-function modules from their files, not the
    ``scipy.linalg`` and ``scipy.special`` packages, whose inits cost a
    fresh process about 19 MB; where a file is not found or does not load,
    it imports the package. While it runs, OpenBLAS uses one thread in the
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


def read_posterior_csv(path: str | Path, digest=None) -> list[PosteriorRow]:
    return [PosteriorRow(**row) for row in read_table(path, POSTERIOR_CSV_COLUMNS, digest)]


def write_trace_csv(
    posterior: BymPosterior,
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Hyperparameter traces, one row per (chain, retained draw)."""
    chains, kept = posterior.beta0_draws.shape
    columns = [
        Coded(range(chains), np.repeat(np.arange(chains), kept)),
        Coded(range(kept), np.tile(np.arange(kept), chains)),
        posterior.beta0_draws.ravel(),
        posterior.sigma2_eps_draws.ravel(),
        posterior.sigma2_sp_draws.ravel(),
    ]
    write_table(path, TRACE_CSV_COLUMNS, columns, metadata)
