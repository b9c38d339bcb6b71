"""The exact collapsed engine.

Its kernel is checked against dense linear algebra, its region summaries
against closed forms, a long Monte Carlo run and a finer grid, the
acceptance criteria c4-c8 are run on ``exact_fit``, and its posterior is
compared with long Gibbs runs on the demo and on a graph with an isolated
node and an all-degenerate component.
"""

import functools
import math
import time
import tracemalloc
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import null_space
from scipy.special import expit, gammaincinv, ndtri

import prevmap.bym
import prevmap.exact
from prevmap.bym import BymModelSpec, McmcConfig, ess, exact_fit, gibbs_fit
from prevmap.direct import NONE, DirectEstimate, estimate_all
from prevmap.exact import (
    GRID_LOG_DROP,
    _Collapsed,
    _cholesky,
    _flood,
    _grid,
    _NotPositiveDefinite,
    _pinned_factor,
    _selected_inverse,
    icar_draws,
    icar_variances,
    rcm_components,
)
from prevmap.graph import AdjacencyGraph, build_adjacency, icar_precision
from prevmap.synthetic import (
    SamplingPlan,
    SyntheticTruth,
    load_scenario,
    make_grid_regions,
    sample_survey,
    spatial_truth,
)
from test_bym import (
    QUICK,
    degenerate_component_spec,
    grid_spec,
    make_estimate,
    small_spec,
    two_component_spec,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GRID_45 = make_grid_regions(5, 9, (3, 6))
GRAPH_45 = build_adjacency(GRID_45)
PREC_45 = icar_precision(GRAPH_45)


def demo_spec(seed=None):
    """The shipped demo's direct estimates and graph, as ``prevmap pipeline`` fits them
    (at the config's seed, or ``seed``)."""
    scenario = load_scenario(REPO_ROOT / "demo.cfg")
    dataset = sample_survey(scenario.realize(seed))
    estimates = sorted(estimate_all(dataset), key=lambda e: e.region_id)
    return BymModelSpec(estimates, icar_precision(build_adjacency(dataset.regions)))


def dense_log_marginal(spec, sig2_eps, sig2_sp):
    """log p(Y | variances) up to a constant, with dense matrices.

    Components without a usable region are left out; the live components'
    levels are tied by log N(0; A m, A P^-1 A'), A holding the differences
    between each component's mean and the first one's.
    """
    prec = spec.precision
    usable = np.array([e.likelihood_usable for e in spec.estimates])
    live = [c for c in prec.component_index if usable[c].any()]
    nodes = np.concatenate(live)
    q = prec.to_dense()[np.ix_(nodes, nodes)]
    y = np.array([spec.estimates[i].logit_y if usable[i] else 0.0 for i in nodes])
    v = np.array([spec.estimates[i].var_logit if usable[i] else 1.0 for i in nodes])
    w = np.where(usable[nodes], 1.0 / (v + sig2_eps), 0.0)
    p = q / sig2_sp + np.diag(w)
    m = np.linalg.solve(p, w * y)
    rank = len(nodes) - len(live)
    out = 0.5 * (np.log(w[w > 0]).sum() - np.linalg.slogdet(p)[1]
                 - (w * y) @ y + (w * y) @ m - rank * math.log(sig2_sp))
    if len(live) > 1:
        sizes = [len(c) for c in live]
        mean_of = np.zeros((len(live), len(nodes)))
        for k, start in enumerate(np.cumsum([0] + sizes[:-1])):
            mean_of[k, start:start + sizes[k]] = 1.0 / sizes[k]
        a = mean_of[1:] - mean_of[0]
        cov = a @ np.linalg.solve(p, a.T)
        am = a @ m
        out += -0.5 * (am @ np.linalg.solve(cov, am) + np.linalg.slogdet(cov)[1])
    return out


def mixed_spec():
    """Two live components (one of them isolated), one all-degenerate, one degenerate node."""
    spec = degenerate_component_spec()
    spec.estimates[2] = make_estimate("A2", 0.0, 0.0, flag="all_zero")
    return spec


@functools.cache
def wide_grid_spec():
    """A 40 x 50 grid: its band, 41 wide, is over LAPACK's block size of 32, so dpbtrf takes its blocked path."""
    prec = icar_precision(build_adjacency(make_grid_regions(40, 50)))
    rng = np.random.default_rng(40)
    return BymModelSpec([make_estimate(rid, float(rng.uniform(0.05, 0.3)), 6e-4) for rid in prec.node_ids], prec)


def dense_theta(spec, sig2_eps, sig2_sp):
    """Each region's mean and variance of theta given both variances, with dense matrices.

    z = b0 + S with S = B alpha, B a basis of each component's sum-to-zero
    vectors: the posterior of (b0, alpha) is Gaussian, with a flat prior on
    b0 and the ICAR prior on alpha.
    """
    prec = spec.precision
    n = prec.dimension
    usable = np.array([e.likelihood_usable for e in spec.estimates])
    y = np.array([e.logit_y if e.likelihood_usable else 0.0 for e in spec.estimates])
    v = np.array([e.var_logit if e.likelihood_usable else 1.0 for e in spec.estimates])
    columns = [np.ones((n, 1))]
    for comp in prec.component_index:
        if len(comp) > 1:
            basis = np.zeros((n, len(comp) - 1))
            basis[comp] = null_space(np.ones((1, len(comp))))
            columns.append(basis)
    x = np.hstack(columns)
    precision = np.zeros((x.shape[1], x.shape[1]))
    precision[1:, 1:] = x[:, 1:].T @ prec.to_dense() @ x[:, 1:] / sig2_sp
    w = np.where(usable, 1.0 / (v + sig2_eps), 0.0)
    cov = np.linalg.inv(precision + x.T @ (w[:, None] * x))
    z_mean = x @ cov @ x.T @ (w * y)
    z_var = np.einsum("ij,jk,ik->i", x, cov, x)
    shrink = np.where(usable, sig2_eps / (sig2_eps + v), 0.0)
    return z_mean + shrink * (y - z_mean), (1 - shrink) ** 2 * z_var + np.where(usable, shrink * v, sig2_eps)


def grid_weights(spec):
    """The variance grid's finite points and their weights, which sum to 1."""
    grid = _grid(spec, _Collapsed(spec))
    finite = np.isfinite(grid.logp)
    weight = np.exp(grid.logp[finite] - grid.logp.max())
    return grid.variances[finite], weight / weight.sum()


class TestKernel:
    @pytest.mark.parametrize("make_spec", [grid_spec, two_component_spec, mixed_spec])
    def test_log_marginal_matches_dense(self, make_spec):
        spec = make_spec()
        kernel = _Collapsed(spec)
        points = [(0.01, 0.05), (0.2, 0.003), (1.5, 0.8)]
        got = kernel.log_marginals(np.array(points))
        want = [dense_log_marginal(spec, *pt) for pt in points]
        # both are defined up to one constant
        assert np.allclose(np.diff(got), np.diff(want), rtol=0, atol=1e-9)

    def test_conditional_mean_matches_dense(self):
        spec = grid_spec()
        kernel = _Collapsed(spec)
        solved = kernel.solve(np.array([[0.05, 0.2]]))
        q = spec.precision.to_dense()[np.ix_(kernel.live, kernel.live)]
        w = 1.0 / (kernel.v_live + 0.05)
        p = q / 0.2 + np.diag(w)
        assert np.allclose(solved.mean[0], np.linalg.solve(p, w * kernel.y_live), rtol=1e-10, atol=1e-12)
        assert 2 * np.log(solved.factor[-1]).sum() == pytest.approx(np.linalg.slogdet(p)[1], abs=1e-9)

    @pytest.mark.parametrize("make_spec", [grid_spec, mixed_spec, wide_grid_spec])
    def test_batch_has_each_rows_bits(self, make_spec):
        # k points stacked in one dpbtrf call give each point the bits it has alone
        kernel = _Collapsed(make_spec())
        n = len(kernel.live)
        if make_spec is wide_grid_spec:
            assert kernel.layout[0] > 32
        variances = np.exp(np.random.default_rng(5).uniform((-7.0, -7.0), (0.0, 2.0), (40, 2)))
        for k in (1, 3, 8, 40):
            rows = variances[:k]
            batch = kernel.solve(rows)
            marginals = kernel.log_marginals(rows)
            for p in range(k):
                one = kernel.solve(rows[p : p + 1])
                assert batch.factor[:, p * n : (p + 1) * n].tobytes() == one.factor.tobytes(), (k, p)
                for name in ("mean", "gain", "level", "level_var", "b0_mean", "b0_prec"):
                    assert getattr(batch, name)[p].tobytes() == getattr(one, name)[0].tobytes(), (k, p, name)
                assert marginals[p].tobytes() == kernel.log_marginals(rows[p : p + 1]).tobytes(), (k, p)

    def test_batch_splits_at_a_singular_row(self, monkeypatch):
        # far out in sig2_eps, W is below the rounding of Q/sig2_sp, so
        # P = Q/sig2_sp + W is singular in floating point: a batch fails at
        # that row and is split around it, and the rows beside it keep
        # their bits
        kernel = _Collapsed(mixed_spec())
        n = len(kernel.live)
        rows = np.array([[0.05, 0.2], [0.3, 0.01], [0.01, 1.5], [1e18, 1.0], [0.2, 0.003], [1.5, 0.8], [0.1, 0.1]])
        with pytest.raises(_NotPositiveDefinite) as failed:
            kernel.solve(rows)
        assert failed.value.column // n == 3
        real = prevmap.exact.dpbtrf
        columns = []

        def dpbtrf(ab, **kwargs):
            columns.append(ab.shape[1] // n)
            return real(ab, **kwargs)

        monkeypatch.setattr(prevmap.exact, "dpbtrf", dpbtrf)
        got = dict((tuple(r.tolist()), v) for r, v in kernel.by_chunks(kernel.log_marginals, rows))
        assert columns == [7, 3, 1, 3]
        assert got.pop((3,)) is None
        assert sorted(got) == [(0, 1, 2), (4, 5, 6)]
        for r, values in got.items():
            for p, value in zip(r, values):
                assert value.tobytes() == kernel.log_marginals(rows[p : p + 1]).tobytes()

    @pytest.mark.parametrize("chunk_bytes", [1 << 24, 1], ids=["one_chunk", "one_point_per_chunk"])
    @pytest.mark.parametrize("make_spec", [grid_spec, two_component_spec, mixed_spec])
    def test_moments_match_dense(self, make_spec, chunk_bytes, monkeypatch):
        # mixed_spec has a dead component, an isolated node and a degenerate node
        monkeypatch.setattr(prevmap.exact, "_CHUNK_BYTES", chunk_bytes)
        spec = make_spec()
        variances = np.array([[0.05, 0.2], [0.3, 0.01], [0.01, 1.5]])
        _, _, mean, var = _Collapsed(spec).moments(variances)
        for k, pair in enumerate(variances):
            want_mean, want_var = dense_theta(spec, *pair)
            assert np.abs(mean[k] - want_mean).max() < 1e-12
            assert np.abs(var[k] / want_var - 1).max() < 1e-12

    def test_selected_inverse_matches_dense(self):
        # three band matrices side by side, each with nodes past the band width
        rng = np.random.default_rng(3)
        k, n, width = 3, 9, 3
        ab = np.zeros((width + 1, k * n), order="F")
        want = []
        for p in range(k):
            upper = np.tril(np.triu(rng.uniform(-1, 0, (n, n)), 1), width)
            a = upper + upper.T
            a += np.diag(1.0 + np.abs(a).sum(axis=1))  # diagonally dominant
            for i, j in zip(*np.triu_indices(n)):
                if j - i <= width:
                    ab[width + i - j, p * n + j] = a[i, j]
            want.append(np.diag(np.linalg.inv(a)))
        got = _selected_inverse(_cholesky(ab), k)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("style", ["B", "W"])
    def test_icar_variances_are_the_pseudo_inverse_diagonal(self, style):
        ids = [f"A{k}" for k in range(6)]
        edges = [("A0", "A2"), ("A2", "A4"), ("A0", "A4"), ("A1", "A3")]
        prec = icar_precision(AdjacencyGraph.from_edges(ids, edges, style=style))
        comps = rcm_components(prec)
        got = np.empty(6)
        got[np.concatenate(comps)] = icar_variances(_pinned_factor(prec, comps))
        assert np.allclose(got, np.diag(np.linalg.pinv(prec.to_dense())), rtol=1e-12, atol=1e-15)

    def test_band_order_is_a_narrow_permutation(self):
        prec = grid_spec().precision
        comps = rcm_components(prec)
        order = np.concatenate(comps)
        assert sorted(order.tolist()) == list(range(prec.dimension))
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        width = np.abs(pos[prec.edge_i] - pos[prec.edge_j]).max()
        assert width <= 6  # a 5 x 9 grid in node order has width 9
        # each component keeps its nodes together
        split = rcm_components(two_component_spec().precision)
        assert [sorted(c.tolist()) for c in split] == [[0, 2, 4], [1, 3], [5]]

    @pytest.mark.parametrize("style", ["B", "W"])
    def test_icar_draws_have_the_pseudo_inverse_covariance(self, style):
        # two components and an isolated node, as in two_component_spec
        ids = [f"A{k}" for k in range(6)]
        edges = [("A0", "A2"), ("A2", "A4"), ("A0", "A4"), ("A1", "A3")]
        prec = icar_precision(AdjacencyGraph.from_edges(ids, edges, style=style))
        comps = rcm_components(prec)
        nodes = np.concatenate(comps)
        k = 200_000
        x = np.empty((6, k))
        x[nodes] = icar_draws(prec, comps, np.random.default_rng(12).standard_normal((6, k)))
        for comp in prec.component_index:
            assert np.abs(x[comp].sum(axis=0)).max() < 1e-12
        assert np.all(x[5] == 0.0)
        want = np.linalg.pinv(prec.to_dense())
        got = x @ x.T / k
        var = np.diag(want)
        se = np.sqrt((np.outer(var, var) + want**2) / k)  # of a Gaussian sample covariance
        assert np.all(np.abs(got - want) <= 5 * se + 1e-15)


class TestExactFit:
    def test_rerun_bit_identical_and_seed_changes_draws(self):
        first = exact_fit(mixed_spec(), QUICK)
        again = exact_fit(mixed_spec(), QUICK)
        for name in ("beta0_draws", "sigma2_eps_draws", "sigma2_sp_draws"):
            assert np.array_equal(getattr(first, name), getattr(again, name)), name
        assert first.summaries == again.summaries and first.meta == again.meta
        other = exact_fit(mixed_spec(), McmcConfig(2, 1500, 500, 1, 100))
        assert not np.array_equal(first.beta0_draws, other.beta0_draws)
        # the summaries do not come from draws: the seed leaves them as they are
        assert first.summaries == other.summaries

    def test_layout_and_diagnostics(self):
        config = McmcConfig(chains=3, iterations=1700, burn_in=200, thin=3, seed=4)
        post = exact_fit(small_spec(), config)
        kept = config.retained_per_chain()
        assert post.theta_draws is None
        assert post.sigma2_sp_draws.shape == (3, kept)
        assert all(math.isnan(s.rhat_theta) and s.ess_theta == 3 * kept for s in post.summaries)
        assert post.report.per_scalar == {}
        assert post.converged
        assert int(post.meta["grid_points"]) > 300
        assert float(post.meta["grid_edge_mass"]) < prevmap.bym.GRID_EDGE_MASS_THRESHOLD

    def test_runs_no_chain_diagnostics(self, monkeypatch):
        # the draws are independent: split R-hat and ESS have nothing to find,
        # and the report holds the grid's checks alone
        def refuse(*args, **kwargs):
            raise AssertionError("exact_fit ran a chain diagnostic")

        for name in ("rhat", "ess", "diagnostics"):
            monkeypatch.setattr(prevmap.bym, name, refuse)
        post = exact_fit(mixed_spec(), QUICK)
        assert post.report.per_scalar == {} and post.report.notes == []
        assert post.converged

    def test_components_sum_to_zero_and_isolated_nodes_sit_at_beta0(self):
        # z = b0 + S over the live nodes: each live component's mean of z
        # has b0's mean, and the isolated A5 has z = b0 exactly
        spec = mixed_spec()
        kernel = _Collapsed(spec)
        sig2_eps, sig2_sp = 0.05, 0.2
        b0_mean, b0_prec, mean, var = kernel.moments(np.array([[sig2_eps, sig2_sp]]))
        shrink = np.where(kernel.usable, sig2_eps / (sig2_eps + kernel.v), 0.0)
        z_mean = (mean[0] - shrink * kernel.y) / (1 - shrink)
        for comp in spec.precision.component_index:
            if kernel.usable[comp].any():
                assert z_mean[comp].mean() == pytest.approx(b0_mean[0], abs=1e-12)
        assert z_mean[5] == pytest.approx(b0_mean[0], abs=1e-15)
        want = (1 - shrink[5]) ** 2 / b0_prec[0] + shrink[5] * kernel.v[5]
        assert var[0, 5] == pytest.approx(want, rel=1e-14)
        # the all-degenerate component {A1, A3} varies as its prior does:
        # S_A1 = -S_A3 ~ N(0, sig2_sp / 4), and eps ~ N(0, sig2_eps)
        for r in (1, 3):
            assert mean[0, r] == b0_mean[0]
            assert var[0, r] == pytest.approx(sig2_sp / 4 + 1 / b0_prec[0] + sig2_eps, rel=1e-14)
        post = exact_fit(spec, QUICK)
        assert all(math.isfinite(x) for s in post.summaries for x in astuple(s.theta) + astuple(s.prevalence))

    def test_narrow_grid_is_flagged(self, monkeypatch):
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 0.5)
        post = exact_fit(small_spec(), QUICK)
        assert float(post.meta["grid_edge_mass"]) > prevmap.bym.GRID_EDGE_MASS_THRESHOLD
        assert not post.converged
        assert "grid_edge_mass" in post.report.failing()

    def test_singular_grid_points_are_counted(self, monkeypatch):
        # a drop of 20 log units grows the grid out to sig2_eps ~ 1e12, where
        # W falls below the rounding of Q/sig2_sp and P = Q/sig2_sp + W is
        # singular in floating point
        assert "grid_singular_points" not in exact_fit(mixed_spec(), QUICK).meta
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 20.0)
        spec = mixed_spec()
        kernel = _Collapsed(spec)
        grid = _grid(spec, kernel)
        zero = grid.variances[np.isneginf(grid.logp)]
        singular = sum(values is None for _, values in kernel.by_chunks(kernel.log_marginals, zero))
        assert grid.singular_points == singular > 0
        post = exact_fit(spec, QUICK)
        assert post.meta["grid_singular_points"] == str(singular)
        assert [note for note in post.report.notes if "singular" in note] == [
            f"variance grid: {singular} of {post.meta['grid_points']} points have a precision "
            "matrix that is singular in floating point; they count as zero density"
        ]
        assert all(math.isfinite(x) for s in post.summaries for x in astuple(s.theta) + astuple(s.prevalence))

    def test_fixed_variances_leave_their_axes_out(self):
        post = exact_fit(small_spec(fixed_sigma2_sp=0.02), QUICK)
        assert np.all(post.sigma2_sp_draws == 0.02)
        assert post.report.per_scalar == {}
        both = exact_fit(small_spec(fixed_sigma2_sp=0.02, fixed_sigma2_eps=0.04), QUICK)
        assert both.meta["grid_points"] == "1"
        assert np.all(both.sigma2_eps_draws == 0.04)

    def test_rank_zero_draws_sigma2_sp_from_its_prior(self):
        # no edges: sig2_sp meets no data, as in c4
        ids = [f"R{k}" for k in range(8)]
        spec = BymModelSpec(
            [make_estimate(rid, 0.1 + 0.02 * k, 5e-4) for k, rid in enumerate(ids)],
            icar_precision(AdjacencyGraph.from_edges(ids, [])),
            fixed_sigma2_eps=0.1,
        )
        post = exact_fit(spec, McmcConfig(4, 10_000, 5_000, 1, 8))
        assert post.meta["grid_points"] == "1"
        pri = spec.priors
        prior_median = pri.b_sp / gammaincinv(pri.a_sp, 0.5)
        got = float(np.median(post.sigma2_sp_draws))
        assert abs(math.log(got / prior_median)) < 0.05
        # every node is isolated, so z = b0 exactly: S = 0, and sig2_sp moves nothing
        kernel = _Collapsed(spec)
        at_one, at_hundred = (kernel.moments(np.array([[0.1, sp]])) for sp in (1.0, 100.0))
        for a, b in zip(at_one, at_hundred):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_posterior_is_a_model_error(self):
        spec = small_spec()
        spec.estimates[2] = DirectEstimate("R2", 0.2, 1e-3, 1e300, 1e-300, 100, 10, NONE)
        with pytest.raises(prevmap.bym.ModelError, match="not finite"):
            exact_fit(spec, QUICK)

    def test_fit_holds_no_draws_by_regions_array(self):
        # 120 regions in one component, every one usable. Quadrupling the
        # draws adds only per-draw arrays: the hyperparameters' draws and
        # cells, and R-hat and ESS of one trace at a time, at most about 20
        # per-draw arrays in all; one (draws x regions) array would add 120.
        prec = icar_precision(build_adjacency(make_grid_regions(10, 12)))
        rng = np.random.default_rng(8)
        spec = BymModelSpec(
            [make_estimate(rid, float(rng.uniform(0.05, 0.3)), 6e-4) for rid in prec.node_ids], prec
        )
        exact_fit(spec, QUICK)  # imports and caches outside the measurement
        peaks = []
        for kept in (2_100, 8_400):
            tracemalloc.start()
            try:
                post = exact_fit(spec, McmcConfig(chains=4, iterations=1_000 + kept, burn_in=1_000, seed=2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert post.theta_draws is None
        draws = 4 * 2_100
        assert peaks[1] - peaks[0] < draws * 120 * 8


# ---------------------------------------------------------------------------
# Acceptance criteria c4-c8 of tests/test_acceptance.py, on exact_fit
# ---------------------------------------------------------------------------


def test_c4_conjugate_oracle():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ids = [f"R{k:02d}" for k in range(45)]
    y = rng.normal(-2.2, 0.5, size=45)
    v = rng.uniform(0.03, 0.35, size=45)
    s2 = 0.2
    ests = [
        DirectEstimate(rid, float(expit(yy)), 0.0, float(yy), float(vv), 100, 10, NONE)
        for rid, yy, vv in zip(ids, y, v)
    ]
    spec = BymModelSpec(
        estimates=ests,
        precision=icar_precision(AdjacencyGraph.from_edges(ids, [])),
        fixed_sigma2_eps=s2,
    )
    post = exact_fit(spec, McmcConfig(chains=4, iterations=10_000, burn_in=5_000,
                                      thin=1, seed=404))
    w = 1.0 / (v + s2)
    beta0_hat = float(np.sum(w * y) / np.sum(w))
    shrink = (y / v + beta0_hat / s2) / (1.0 / v + 1.0 / s2)
    worst_z = max(
        abs(s.theta.mean - shrink[k]) / (s.theta.sd / math.sqrt(s.ess_theta))
        for k, s in enumerate(post.summaries)
    )
    assert worst_z < 3.0 and time.time() - t0 < 60.0, worst_z


def test_c5_shrinkage_and_precision_gain():
    plan = SamplingPlan((8, 25), 15, 2.0)
    shrink_ok = precision_ok = 0
    for seed in range(20):
        truth = spatial_truth(GRID_45, -2.4, 0.45, seed=seed)
        ests = estimate_all(sample_survey(SyntheticTruth(GRID_45, truth, plan, seed)))
        good = [e for e in ests if e.degenerate == NONE]
        post = exact_fit(
            BymModelSpec(estimates=ests, precision=PREC_45),
            McmcConfig(chains=2, iterations=4000, burn_in=2000, thin=1, seed=5000 + seed),
        )
        smoothed = np.array([s.prevalence.mean for s in post.summaries])
        shrink_ok += smoothed.var(ddof=1) <= np.array([e.p_hat for e in good]).var(ddof=1)
        post_sd = np.array([s.prevalence.sd for s in post.summaries])
        precision_ok += post_sd.mean() < np.array([e.se_p for e in good]).mean()
    assert shrink_ok >= 18 and precision_ok >= 18, (shrink_ok, precision_ok)


def test_c6_no_zero_prevalence():
    regions = make_grid_regions(3, 3)
    low = {"R_0_0", "R_0_2", "R_2_0", "R_2_2"}
    truth_map = {b.region_id: (0.004 if b.region_id in low else 0.25) for b in regions}
    plan = SamplingPlan((2, 2), 12, 1.0, cluster_sd=0.2)
    for seed in range(50):
        ests = estimate_all(sample_survey(SyntheticTruth(regions, truth_map, plan, seed)))
        if (sum(e.p_hat == 0.0 for e in ests) >= 3
                and sum(e.degenerate == NONE for e in ests) >= 2):
            break
    else:
        pytest.fail("no seed produced >= 3 zero-case regions")
    post = exact_fit(
        BymModelSpec(estimates=ests, precision=icar_precision(build_adjacency(regions))),
        McmcConfig(chains=2, iterations=3000, burn_in=1000, thin=1, seed=606),
    )
    assert all(
        s.prevalence.mean > 0.0 and s.prevalence.q025 > 0.0 and s.prevalence.median > 0.0
        for s in post.summaries
    )


def test_c7_frequentist_calibration():
    t0 = time.time()
    plan = SamplingPlan((20, 20), 25, 1.5, cluster_sd=0.25)
    covered = total = 0
    for i in range(200):
        seed = 2000 + i
        truth = spatial_truth(GRID_45, -2.2, 0.4, seed=seed)
        ests = estimate_all(sample_survey(SyntheticTruth(GRID_45, truth, plan, seed)))
        post = exact_fit(
            BymModelSpec(estimates=ests, precision=PREC_45),
            McmcConfig(chains=2, iterations=4000, burn_in=2000, thin=1, seed=50_000 + i),
        )
        for s in post.summaries:
            covered += s.prevalence.q025 <= truth[s.region_id] <= s.prevalence.q975
            total += 1
    coverage = covered / total
    print(f"\nexact engine: coverage {coverage:.3f} over {total} pairs, {time.time() - t0:.0f}s")
    assert 0.90 <= coverage <= 0.98 and time.time() - t0 < 1800.0


def test_c8_cross_border_borrowing():
    country = {b.region_id: b.country for b in GRID_45}
    within = [e for e in GRAPH_45.edges if country[e[0]] == country[e[1]]]
    prec_cut = icar_precision(AdjacencyGraph.from_edges(GRAPH_45.node_ids, within))
    border = sorted({rid for a, b in GRAPH_45.edges if country[a] != country[b] for rid in (a, b)})
    plan = SamplingPlan((8, 20), 15, 2.0)
    moved = 0
    for seed in range(20):
        truth = spatial_truth(GRID_45, -2.4, 0.45, seed=seed)
        ests = estimate_all(sample_survey(SyntheticTruth(GRID_45, truth, plan, seed)))
        cfg = McmcConfig(chains=2, iterations=3000, burn_in=1000, thin=1, seed=8000 + seed)
        full = exact_fit(BymModelSpec(estimates=ests, precision=PREC_45), cfg)
        cut = exact_fit(BymModelSpec(estimates=ests, precision=prec_cut), cfg)
        m_full = {s.region_id: s.prevalence.mean for s in full.summaries}
        m_cut = {s.region_id: s.prevalence.mean for s in cut.summaries}
        moved += max(abs(m_full[r] - m_cut[r]) for r in border) > 1e-4
    assert moved >= 15, moved


# ---------------------------------------------------------------------------
# Agreement with long Gibbs runs, within Monte Carlo error
# ---------------------------------------------------------------------------

LONG_GIBBS = McmcConfig(chains=4, iterations=80_000, burn_in=20_000, thin=10, seed=11)
EXACT = McmcConfig(chains=4, iterations=10_000, burn_in=5_000, thin=1, seed=12)


def _mc_error(draws):
    """Standard error of the mean of (chains, draws) traces."""
    return float(np.std(draws, ddof=1)) / math.sqrt(ess(draws))


@pytest.mark.parametrize("make_spec, linear", [(demo_spec, True), (degenerate_component_spec, False)],
                         ids=["demo", "isolated_and_degenerate_component"])
def test_exact_agrees_with_long_gibbs(make_spec, linear):
    spec = make_spec()
    exact = exact_fit(spec, EXACT)
    gibbs = gibbs_fit(make_spec(), LONG_GIBBS)
    assert exact.converged, exact.report.failing()
    worst = 0.0
    for r in range(spec.precision.dimension):
        # the exact engine's mean is the mixture's, with no Monte Carlo error
        b = gibbs.theta_draws[:, :, r]
        gap = abs(exact.summaries[r].theta.mean - b.mean()) / _mc_error(b)
        worst = max(worst, gap)
    # The variances are compared on the log scale, and on the demo also as
    # they are: on the small graph their posterior variance is infinite (the
    # density falls as sig2^-2.5), so a sample mean has no standard error
    # there; test_grid_holds_the_variances_means checks those means.
    compared = [("beta0_draws", False), ("sigma2_eps_draws", True), ("sigma2_sp_draws", True)]
    if linear:
        compared += [("sigma2_eps_draws", False), ("sigma2_sp_draws", False)]
    for name, log in compared:
        a, b = getattr(exact, name), getattr(gibbs, name)
        if log:
            a, b = np.log(a), np.log(b)
        gap = abs(a.mean() - b.mean()) / math.hypot(_mc_error(a), _mc_error(b))
        worst = max(worst, gap)
        assert np.std(a) == pytest.approx(np.std(b), rel=0.1), name
    print(f"\nlargest exact-vs-Gibbs gap: {worst:.2f} Monte Carlo standard errors")
    assert worst < 4.0


def quadrature_means(spec, step=0.25):
    """E[sig2_eps | Y] and E[sig2_sp | Y] by a sum over a wide, even lattice of the log variances."""
    kernel = _Collapsed(spec)
    pri = spec.priors
    t_eps = np.arange(-16.0, 30.0, step)
    t_sp = np.arange(-16.0, 40.0, step)
    logp = np.full((len(t_eps), len(t_sp)), -np.inf)
    for i, a in enumerate(t_eps):
        row = np.column_stack([np.full(len(t_sp), math.exp(a)), np.exp(t_sp)])
        for cols, values in kernel.by_chunks(kernel.log_marginals, row):
            if values is None:  # P is singular in floating point far out
                continue
            b = t_sp[cols]
            logp[i, cols] = (values - pri.a_eps * a - pri.b_eps * math.exp(-a)
                             - pri.a_sp * b - pri.b_sp * np.exp(-b))
    w = np.exp(logp - logp.max())
    w /= w.sum()
    return float(w.sum(axis=1) @ np.exp(t_eps)), float(w.sum(axis=0) @ np.exp(t_sp))


@pytest.mark.parametrize("make_spec", [mixed_spec, degenerate_component_spec],
                         ids=["mixed", "isolated_and_degenerate_component"])
def test_grid_holds_the_variances_means(make_spec):
    # On these graphs log p(log sig2 | Y) falls only as -1.5 log sig2 on the
    # right, so E[sig2] lies far past the bulk of the density: a grid that
    # covers only the density's mass misses 6-7% of it.
    spec = make_spec()
    grid = _grid(spec, _Collapsed(spec))
    w = np.exp(grid.logp - grid.logp.max())
    got = w @ grid.variances / w.sum()
    assert got == pytest.approx(quadrature_means(spec), rel=0.005)
    assert grid.edge_mass < prevmap.bym.GRID_EDGE_MASS_THRESHOLD


# ---------------------------------------------------------------------------
# Region summaries from the variance grid: closed form, Monte Carlo, refinement
# ---------------------------------------------------------------------------


def test_summaries_match_the_closed_form_without_edges():
    # the c4 setup: no edges and a fixed sig2_eps leave one grid point, so
    # each region's theta is one Gaussian: z = b0 ~ N(sum(w y) / sum(w),
    # 1 / sum(w)), and theta = z + shrink (y - z) + eps, eps ~ N(0, shrink v)
    rng = np.random.default_rng(404)
    ids = [f"R{k:02d}" for k in range(45)]
    y = rng.normal(-2.2, 0.5, size=45)
    v = rng.uniform(0.03, 0.35, size=45)
    s2 = 0.2
    ests = [DirectEstimate(rid, float(expit(yy)), 0.0, float(yy), float(vv), 100, 10, NONE)
            for rid, yy, vv in zip(ids, y, v)]
    spec = BymModelSpec(ests, icar_precision(AdjacencyGraph.from_edges(ids, [])), fixed_sigma2_eps=s2)
    post = exact_fit(spec, QUICK)
    assert post.meta["grid_points"] == "1"
    w = 1.0 / (v + s2)
    b0_mean, b0_var = float(w @ y / w.sum()), float(1.0 / w.sum())
    shrink = s2 / (s2 + v)
    mean = b0_mean + shrink * (y - b0_mean)
    sd = np.sqrt((1 - shrink) ** 2 * b0_var + shrink * v)
    for k, s in enumerate(post.summaries):
        quantiles = mean[k] + sd[k] * ndtri(np.array([0.5, 0.025, 0.975]))
        assert (s.theta.mean, s.theta.sd) == pytest.approx((mean[k], sd[k]), rel=1e-12)
        assert (s.theta.median, s.theta.q025, s.theta.q975) == pytest.approx(quantiles, rel=1e-11)
        assert (s.prevalence.median, s.prevalence.q025, s.prevalence.q975) == pytest.approx(
            expit(quantiles), rel=1e-11)

        def moment(power):
            return quad(lambda x: expit(x) ** power * math.exp(-0.5 * ((x - mean[k]) / sd[k]) ** 2),
                        mean[k] - 12 * sd[k], mean[k] + 12 * sd[k], epsabs=0, epsrel=1e-13)[0] / (
                math.sqrt(2 * math.pi) * sd[k])

        m1, m2 = moment(1), moment(2)
        assert s.prevalence.mean == pytest.approx(m1, rel=1e-11)
        assert s.prevalence.sd == pytest.approx(math.sqrt(m2 - m1 * m1), rel=1e-8)


def test_newton_start_is_ndtri_to_the_bit():
    # the engine loads no ndtri: its quantile Newton steps start from these
    # literals, which are not symmetric (-ndtri(0.025) != ndtri(0.975))
    expected = ndtri(np.array([0.5, 0.025, 0.975]))
    start = prevmap.exact._NEWTON_START_Z
    assert start.shape == (3, 1)
    assert [z.hex() for z in start[:, 0].tolist()] == [z.hex() for z in expected.tolist()]
    assert -expected[1] != expected[2]


def test_summaries_agree_with_a_long_monte_carlo_run():
    # A5 is isolated and {A1, A3} has no usable region. Draws of the
    # variances from the grid's weights, then of each region's theta from
    # its Gaussian given them (dense_theta, not the banded kernel)
    spec = degenerate_component_spec()
    variances, weight = grid_weights(spec)
    rng = np.random.default_rng(21)
    draws = 400_000
    cells = rng.choice(len(weight), size=draws, p=weight)
    moments = [dense_theta(spec, *pair) for pair in variances]
    mean = np.array([m for m, _ in moments])[cells]
    sd = np.sqrt(np.array([v for _, v in moments]))[cells]
    theta = mean + sd * rng.standard_normal(mean.shape)
    prevalence = expit(theta)
    post = exact_fit(spec, EXACT)
    limit = 4.0 / math.sqrt(draws)
    for r, s in enumerate(post.summaries):
        for draws_r, summary in ((theta[:, r], s.theta), (prevalence[:, r], s.prevalence)):
            assert abs(draws_r.mean() - summary.mean) < limit * draws_r.std(), (r, summary)
            assert summary.sd == pytest.approx(draws_r.std(), rel=0.01)
            # the share of draws below each quantile, against its binomial error
            for q, at in ((0.5, summary.median), (0.025, summary.q025), (0.975, summary.q975)):
                assert abs(np.mean(draws_r < at) - q) < limit * math.sqrt(q * (1 - q)), (r, q, summary)


def test_sigma2_sp_from_its_prior_summarizes_dead_regions_over_the_draws():
    # no live component has an edge, so sig2_sp meets no data and is drawn
    # from its prior; the dead pair {R4, R5} has S_R4 = -S_R5 ~ N(0, sig2_sp / 4)
    ids = [f"R{k}" for k in range(6)]
    ests = [make_estimate(rid, 0.1 + 0.03 * k, 5e-4) for k, rid in enumerate(ids[:4])]
    ests += [make_estimate(rid, 0.0, 0.0, flag="all_zero") for rid in ids[4:]]
    spec = BymModelSpec(ests, icar_precision(AdjacencyGraph.from_edges(ids, [("R4", "R5")])))
    post = exact_fit(spec, McmcConfig(4, 6_000, 1_000, 1, 8))
    rng = np.random.default_rng(4)
    copies = 10
    b0, sig2e, sig2s = (np.repeat(x.ravel(), copies) for x in
                        (post.beta0_draws, post.sigma2_eps_draws, post.sigma2_sp_draws))
    theta = b0 + np.sqrt(sig2s / 4 + sig2e) * rng.standard_normal(len(b0))
    limit = 4.0 / math.sqrt(len(b0))
    for r in (4, 5):
        s = post.summaries[r].theta
        for q, at in ((0.5, s.median), (0.025, s.q025), (0.975, s.q975)):
            assert abs(np.mean(theta < at) - q) < limit * math.sqrt(q * (1 - q)), (r, q)


def assert_grid_refinement_bounds_the_grid_error(monkeypatch, seed=None):
    spec = demo_spec(seed)
    coarse = exact_fit(spec, QUICK)
    monkeypatch.setattr(prevmap.exact, "GRID_POINTS", 4 * prevmap.exact.GRID_POINTS)
    fine = exact_fit(spec, QUICK)
    assert int(fine.meta["grid_points"]) > 3 * int(coarse.meta["grid_points"])
    prev = max(abs(a - b) for c, f in zip(coarse.summaries, fine.summaries)
               for a, b in zip(astuple(c.prevalence), astuple(f.prevalence)))
    theta = max(abs(c.theta.mean - f.theta.mean) for c, f in zip(coarse.summaries, fine.summaries))
    print(f"\ngrid error by refinement: prevalence {prev:.1e}, theta mean {theta:.1e}")
    assert prev < 1e-6 and theta < 1e-5


def test_grid_refinement_bounds_the_grid_error_on_the_demo(monkeypatch):
    assert_grid_refinement_bounds_the_grid_error(monkeypatch)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: at demo seed 3 the 600-point grid is off by 4.4e-5 on the "
    "prevalence columns and 5.3e-4 on theta_mean against a four times finer grid"))
def test_grid_refinement_bounds_the_grid_error_on_the_demo_at_seed_3(monkeypatch):
    assert_grid_refinement_bounds_the_grid_error(monkeypatch, seed=3)


def test_a_chunk_that_fails_is_split_around_the_point(monkeypatch):
    # dpbtrf reports a failure at the third point of the first stacked
    # call (the mode's finite-difference stencil); that point is factored
    # alone, and the summaries do not move
    spec = mixed_spec()
    want = exact_fit(spec, QUICK)
    n = len(_Collapsed(spec).live)
    real = prevmap.exact.dpbtrf
    failed = []

    def dpbtrf(ab, **kwargs):
        factor, info = real(ab, **kwargs)
        if ab.shape[1] > 2 * n and not failed:
            failed.append(ab.shape[1] // n)
            return factor, 2 * n + 1
        return factor, info

    monkeypatch.setattr(prevmap.exact, "dpbtrf", dpbtrf)
    got = exact_fit(spec, QUICK)
    assert failed and failed[0] > 3
    assert np.array_equal(got.beta0_draws, want.beta0_draws)
    for a, b in zip(got.summaries, want.summaries):
        for x, y in ((a.theta, b.theta), (a.prevalence, b.prevalence)):
            assert astuple(x) == pytest.approx(astuple(y), rel=1e-13)


# ---------------------------------------------------------------------------
# The variance grid's flood: batched densities against one call per point
# ---------------------------------------------------------------------------


def reference_flood(f, center, basis, spacing):
    """``_flood`` with one call of the one-point density ``f`` per point, in visiting order.

    The reference the batched flood must match bit for bit.
    """
    d = len(center)

    def levels_of(point, value):
        return [value] + [value + x for x in point.tolist()]

    origin = (0,) * d
    value = f(center)
    keys, points, values = [origin], [center], [value]
    index = {origin}
    levels = [levels_of(center, value)]
    best = list(levels[0])
    expanded = []
    i = 0
    while i < len(keys) and len(keys) < prevmap.exact._GRID_MAX_POINTS:
        if any(level >= top - GRID_LOG_DROP for level, top in zip(levels[i], best)):
            expanded.append(i)
            k = keys[i]
            for axis in range(d):
                for sign in (1, -1):
                    nb = k[:axis] + (k[axis] + sign,) + k[axis + 1 :]
                    if nb not in index:
                        index.add(nb)
                        keys.append(nb)
                        points.append(center + basis @ (spacing * np.array(nb)))
                        value = f(points[-1])
                        values.append(value)
                        levels.append(levels_of(points[-1], value))
                        best = [max(top, level) for top, level in zip(best, levels[-1])]
        i += 1
    edge = np.ones(len(keys), dtype=bool)
    edge[expanded] = False
    return np.array(points), np.array(values), edge


@st.composite
def flood_cases(draw):
    """A one-point log density on d log variances, the flood's center, basis and spacing, and a point cap.

    Rotated anisotropic quadratics; a heavy right tail, whose variance
    integrands (log density plus a log variance) keep rising away from the
    mode; and either of them with -inf holes away from the center.
    """
    d = draw(st.sampled_from([2, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    curv = np.exp(rng.uniform(-1.0, 2.5, d))
    kind = draw(st.sampled_from(["quadratic", "heavy_tail"]))
    if kind == "quadratic":
        mode = rng.uniform(-3.0, 3.0, d)
        hess = rotation @ np.diag(curv) @ rotation.T

        def smooth(p):
            x = p - mode
            return float(-0.5 * x @ hess @ x)

        basis = rotation / np.sqrt(curv)
        center = mode + rng.uniform(-0.3, 0.3, d)
    else:
        # log density -a t - b e^-t per axis (an inverse-gamma variance in
        # log units): the integrand adds t, so it falls only as (1 - a) t
        a, b = rng.uniform(1.2, 2.5, d), rng.uniform(0.3, 3.0, d)

        def smooth(p):
            return float(np.sum(-a * p - b * np.exp(-p)))

        basis = rotation * rng.uniform(0.4, 1.5, d)
        center = np.log(b / a)
    if draw(st.booleans()):
        phase, freq = rng.uniform(0, 2 * np.pi), rng.uniform(1.0, 5.0, d)

        def f(p):
            hole = np.abs(p - center).max() > 0.5 and math.sin(phase + float(freq @ p)) > 0.9
            return -math.inf if hole else smooth(p)
    else:
        f = smooth
    spacing = draw(st.floats(0.3, 1.5))
    # a cap of about 50 points falls inside a batch
    cap = draw(st.sampled_from([47, 50, 53])) if draw(st.integers(0, 3)) == 0 else prevmap.exact._GRID_MAX_POINTS
    return f, center, basis, spacing, cap


@settings(max_examples=80, deadline=None)
@given(case=flood_cases())
def test_prefetching_flood_matches_the_one_point_flood(case):
    f, center, basis, spacing, cap = case
    batches = []

    def batched(points):
        batches.append(len(points))
        return np.array([f(p) for p in points])

    with mock.patch.object(prevmap.exact, "_GRID_MAX_POINTS", cap):
        want = reference_flood(f, center, basis, spacing)
        got = _flood(batched, center, f(center), basis, spacing)
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.array_equal(got[2], want[2])
    # every point of the grid but the center came from a batch
    assert sum(batches) >= len(want[1]) - 1


@pytest.mark.parametrize("cliff", [None, -1e-4], ids=["smooth", "cliff_beside_the_mode"])
def test_a_non_finite_hessian_at_the_mode_gives_a_unit_lattice(cliff):
    # a correlated Gaussian on the log variances: its Hessian lays the grid
    # along rotated eigen-axes, unless a point of the Hessian's stencil has
    # zero density, and then the lattice runs along the log variances
    a = np.array([[40.0, 30.0], [30.0, 40.0]])

    def f(points):
        value = -0.5 * np.einsum("ki,ij,kj->k", points, a, points)
        return value if cliff is None else np.where(points[:, 0] < cliff, -np.inf, value)

    points, logp, _ = prevmap.exact._variance_grid(f, np.zeros(2))
    assert points[0].tolist() == [0.0, 0.0] and logp[0] == 0.0
    first = points[1]
    if cliff is None:
        assert first[0] == pytest.approx(-first[1])  # an eigen-axis of a, not a log variance
    else:
        assert first[1] == 0.0 < first[0]
        steps = points / first[0]
        assert np.allclose(steps, np.round(steps), rtol=0, atol=1e-9)
        assert np.isfinite(logp).sum() > 1
