"""The exact collapsed engine.

Its kernel is checked against dense linear algebra, its draws against the
closed forms and the layout rules, the acceptance criteria c4-c8 are run on
``exact_fit``, and its posterior is compared with long Gibbs runs on the
demo and on a graph with an isolated node and an all-degenerate component.
"""

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, gammaincinv

import prevmap.bym
import prevmap.exact
from prevmap.bym import BymModelSpec, McmcConfig, ess, exact_fit, gibbs_fit
from prevmap.direct import NONE, DirectEstimate, estimate_all
from prevmap.exact import _Collapsed, _grid, icar_draws, rcm_components
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


def demo_spec():
    """The shipped demo's direct estimates and graph, as ``prevmap pipeline`` fits them."""
    scenario = load_scenario(REPO_ROOT / "demo.cfg")
    dataset = sample_survey(scenario.realize())
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


def live_draws(spec, sig2_eps, sig2_sp, k=400):
    """The kernel, k draws of z over its live nodes from ``draw_live``, and their b0."""
    kernel = _Collapsed(spec)
    cond = kernel.conditional(sig2_eps, sig2_sp)[1]
    rng = np.random.default_rng(5)
    b0 = cond.b0_mean + rng.standard_normal(k) / math.sqrt(cond.b0_prec)
    return kernel, kernel.draw_live(cond, rng.standard_normal((len(kernel.live), k)), b0), b0


class TestKernel:
    @pytest.mark.parametrize("make_spec", [grid_spec, two_component_spec, mixed_spec])
    def test_log_marginal_matches_dense(self, make_spec):
        spec = make_spec()
        kernel = _Collapsed(spec)
        points = [(0.01, 0.05), (0.2, 0.003), (1.5, 0.8)]
        got = [kernel.conditional(*pt)[0] for pt in points]
        want = [dense_log_marginal(spec, *pt) for pt in points]
        # both are defined up to one constant
        assert np.allclose(np.diff(got), np.diff(want), rtol=0, atol=1e-9)

    def test_conditional_mean_matches_dense(self):
        spec = grid_spec()
        kernel = _Collapsed(spec)
        _, cond = kernel.conditional(0.05, 0.2)
        q = spec.precision.to_dense()[np.ix_(kernel.live, kernel.live)]
        w = 1.0 / (kernel.v_live + 0.05)
        p = q / 0.2 + np.diag(w)
        assert np.allclose(cond.mean, np.linalg.solve(p, w * kernel.y_live), rtol=1e-10, atol=1e-12)
        assert 2 * np.log(cond.factor[-1]).sum() == pytest.approx(np.linalg.slogdet(p)[1], abs=1e-9)

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
        for name in ("theta_draws", "beta0_draws", "sigma2_eps_draws", "sigma2_sp_draws"):
            assert np.array_equal(getattr(first, name), getattr(again, name)), name
        assert first.summaries == again.summaries and first.meta == again.meta
        other = exact_fit(mixed_spec(), McmcConfig(2, 1500, 500, 1, 100))
        assert not np.array_equal(first.theta_draws, other.theta_draws)

    def test_layout_and_diagnostics(self):
        config = McmcConfig(chains=3, iterations=1700, burn_in=200, thin=3, seed=4)
        post = exact_fit(small_spec(), config)
        kept = config.retained_per_chain()
        assert post.theta_draws.shape == (3, kept, 6)
        assert post.sigma2_sp_draws.shape == (3, kept)
        assert all(math.isnan(s.rhat_theta) and s.ess_theta == 3 * kept for s in post.summaries)
        assert set(post.report.per_scalar) == {"beta0", "sigma2_eps", "sigma2_sp"}
        assert post.converged
        assert int(post.meta["grid_points"]) > 300
        assert float(post.meta["grid_edge_mass"]) < prevmap.bym.GRID_EDGE_MASS_THRESHOLD

    def test_components_sum_to_zero_and_isolated_nodes_sit_at_beta0(self):
        # z = b0 + S over the live nodes, as draw_live makes it: each live
        # component's mean of z is its draw of b0
        spec = mixed_spec()
        kernel, z, b0 = live_draws(spec, 0.05, 0.2)
        for block in np.split(z, kernel.live_starts[1:]):
            assert np.abs(block.mean(axis=0) - b0).max() < 1e-10
        assert np.all(z[kernel.live == 5] == b0)  # A5 has no neighbour
        # the all-degenerate component {A1, A3} varies as its prior does:
        # S_A1 - S_A3 ~ N(0, sig2_sp) given sig2_sp, and eps_A1, eps_A3 ~
        # N(0, sig2_eps) apart from it
        post = exact_fit(spec, QUICK)
        spread = np.sqrt(post.sigma2_sp_draws + 2 * post.sigma2_eps_draws)
        contrast = (post.theta_draws[:, :, 1] - post.theta_draws[:, :, 3]) / spread
        assert np.var(contrast) == pytest.approx(1.0, rel=0.1)
        assert np.isfinite(post.theta_draws).all()

    def test_narrow_grid_is_flagged(self, monkeypatch):
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 0.5)
        post = exact_fit(small_spec(), QUICK)
        assert float(post.meta["grid_edge_mass"]) > prevmap.bym.GRID_EDGE_MASS_THRESHOLD
        assert not post.converged
        assert "grid_edge_mass" in post.report.failing()

    def test_singular_grid_points_are_counted(self, monkeypatch):
        # a drop of 20 log units grows the grid out to sig2_sp ~ 1e19, where
        # P = Q/sig2_sp + W is singular in floating point
        assert "grid_singular_points" not in exact_fit(mixed_spec(), QUICK).meta
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 20.0)
        spec = mixed_spec()
        kernel = _Collapsed(spec)
        grid = _grid(spec, kernel)
        singular = 0
        for variances in grid.variances[np.isneginf(grid.logp)]:
            try:
                kernel.conditional(*variances)
            except np.linalg.LinAlgError:
                singular += 1
        assert grid.singular_points == singular > 0
        post = exact_fit(spec, QUICK)
        assert post.meta["grid_singular_points"] == str(singular)
        assert [note for note in post.report.notes if "singular" in note] == [
            f"variance grid: {singular} of {post.meta['grid_points']} points have a precision "
            "matrix that is singular in floating point; they count as zero density"
        ]
        assert np.isfinite(post.theta_draws).all()

    def test_fixed_variances_leave_their_axes_out(self):
        post = exact_fit(small_spec(fixed_sigma2_sp=0.02), QUICK)
        assert np.all(post.sigma2_sp_draws == 0.02)
        assert "sigma2_sp" not in post.report.per_scalar
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
        # every node is isolated, so z = b0 exactly: S = 0
        _, z, b0 = live_draws(spec, 0.1, 1.0)
        assert np.all(z == b0)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_posterior_is_a_model_error(self):
        spec = small_spec()
        spec.estimates[2] = DirectEstimate("R2", 0.2, 1e-3, 1e300, 1e-300, 100, 10, NONE)
        with pytest.raises(prevmap.bym.ModelError, match="not finite"):
            exact_fit(spec, QUICK)

    def test_peak_memory_is_one_draws_array(self):
        # 120 regions in one component, every one usable, and D = 33,600
        # draws: theta_draws is 32.3 MB, and nothing else scales with
        # draws x regions. What else the fit holds is at most, in units of
        # theta (D x 120 x 8 B):
        # - while drawing: five per-draw arrays (cells, b0, both variances,
        #   the cell sort), 5/120 = 0.04; the sd table, about 1,300 grid
        #   points x 120 regions, 0.04; the largest cell's temporaries,
        #   about four arrays of 1.6% of the draws, 0.06; two eps blocks of
        #   512 KiB, 0.03;
        # - while summarizing: the three hyperparameter draws, 0.03; R-hat
        #   of one hyperparameter trace, up to 11 per-draw arrays, 0.09;
        #   about four summary blocks of 512 KiB, 0.07.
        # Either phase stays under 0.2, so 0.25 leaves a margin; a second
        # draws x regions array, as S was, takes it past 2.
        prec = icar_precision(build_adjacency(make_grid_regions(10, 12)))
        rng = np.random.default_rng(8)
        spec = BymModelSpec(
            [make_estimate(rid, float(rng.uniform(0.05, 0.3)), 6e-4) for rid in prec.node_ids], prec
        )
        exact_fit(spec, QUICK)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            post = exact_fit(spec, McmcConfig(chains=4, iterations=9_400, burn_in=1_000, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.theta_draws.nbytes >= 32_000_000
        assert peak < 1.25 * post.theta_draws.nbytes


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
        a, b = exact.theta_draws[:, :, r], gibbs.theta_draws[:, :, r]
        gap = abs(a.mean() - b.mean()) / math.hypot(_mc_error(a), _mc_error(b))
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
        for j, b in enumerate(t_sp):
            try:
                value = kernel.conditional(math.exp(a), math.exp(b))[0]
            except np.linalg.LinAlgError:  # P is singular in floating point far out
                continue
            logp[i, j] = (value - pri.a_eps * a - pri.b_eps * math.exp(-a)
                          - pri.a_sp * b - pri.b_sp * math.exp(-b))
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
