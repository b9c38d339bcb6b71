import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from prevmap.bym import (
    BymModelSpec,
    Hyperpriors,
    McmcConfig,
    PosteriorRow,
    diagnostics,
    ess,
    exact_fit,
    gibbs_fit,
    read_posterior_csv,
    rhat,
    summarize,
    write_posterior_csv,
    write_trace_csv,
)
from prevmap.direct import ALL_ZERO, NONE, DirectEstimate
from prevmap.errors import ModelError
from prevmap.graph import AdjacencyGraph, icar_precision


def make_estimate(region_id, p, var_p, n=100, m=10, flag=NONE):
    if flag == NONE:
        y = float(logit(p))
        v = var_p / (p * (1 - p)) ** 2
    else:
        y = v = float("nan")
    return DirectEstimate(region_id, p, var_p, y, v, n, m, flag)


def isolated_precision(region_ids):
    return icar_precision(AdjacencyGraph.from_edges(region_ids, []))


def chain_precision(region_ids):
    edges = list(zip(region_ids, region_ids[1:]))
    return icar_precision(AdjacencyGraph.from_edges(region_ids, edges))


def small_spec(n_regions=6, seed=3, **kwargs):
    rng = np.random.default_rng(seed)
    ids = [f"R{k}" for k in range(n_regions)]
    ests = [
        make_estimate(rid, float(rng.uniform(0.05, 0.3)), float(rng.uniform(1e-4, 1e-3)))
        for rid in ids
    ]
    return BymModelSpec(estimates=ests, precision=chain_precision(ids), **kwargs)


QUICK = McmcConfig(chains=2, iterations=1500, burn_in=500, thin=1, seed=99)


class TestSummarize:
    def test_constant_draws(self):
        s = summarize(np.full(600, 3.25))
        assert s.mean == s.median == 3.25
        assert s.sd == 0.0
        assert s.q025 == s.q975 == 3.25

    def test_prevalence_is_expit_then_summarize(self):
        draws = np.array([-1.0, 0.0, 1.0])
        prev = summarize(expit(draws))
        expected = (expit(-1.0) + 0.5 + expit(1.0)) / 3.0
        assert prev.mean == pytest.approx(expected, abs=1e-15)
        # transform-then-summarize differs from expit of the theta mean
        asym = np.array([-2.0, 0.0, 1.0])
        assert summarize(expit(asym)).mean != pytest.approx(
            float(expit(asym.mean())), abs=1e-3
        )

    def test_symmetric_draws_give_median_half(self):
        draws = np.linspace(-3, 3, 1001)
        assert summarize(expit(draws)).median == pytest.approx(0.5, abs=1e-12)

    def test_quantile_ordering(self):
        rng = np.random.default_rng(0)
        s = summarize(rng.normal(size=2000))
        assert s.q025 <= s.median <= s.q975


class TestDiagnostics:
    def test_iid_chains_rhat_near_one(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal((2, 2000))
        assert 0.99 <= rhat(draws) <= 1.02

    def test_iid_chains_ess_large(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal((2, 2000))
        assert ess(draws) > 1500

    def test_disjoint_supports_flagged(self):
        draws = np.vstack([np.zeros(1000), np.full(1000, 10.0)])
        r = rhat(draws)
        assert r > 1.05  # inf is fine, never a ZeroDivisionError

    def test_constant_everywhere_is_nan_not_crash(self):
        draws = np.full((3, 800), 2.0)
        assert math.isnan(rhat(draws))
        assert math.isnan(ess(draws))
        report = diagnostics({"x": draws})
        assert not report.converged
        assert any("degenerate" in note for note in report.notes)

    def test_report_flags_bad_scalars(self):
        rng = np.random.default_rng(5)
        good = rng.standard_normal((2, 2000))
        bad = np.vstack([np.zeros(1000), np.full(1000, 9.0)])
        report = diagnostics({"good": good, "bad": bad})
        assert report.per_scalar["good"].ok
        assert not report.per_scalar["bad"].ok
        assert report.failing() == ["bad"]

    def test_autocorrelated_chain_has_smaller_ess(self):
        rng = np.random.default_rng(8)
        chains = []
        for _ in range(2):
            eps = rng.standard_normal(4000)
            x = np.empty(4000)
            x[0] = eps[0]
            for t in range(1, 4000):
                x[t] = 0.9 * x[t - 1] + eps[t]
            chains.append(x)
        draws = np.vstack(chains)
        assert ess(draws) < 0.25 * draws.size

    def test_needs_two_chains(self):
        with pytest.raises(ValueError):
            rhat(np.zeros((1, 100)))


class TestConfigValidation:
    def test_too_few_retained(self):
        with pytest.raises(ModelError, match="500"):
            McmcConfig(chains=2, iterations=600, burn_in=400, thin=1, seed=0).validate()

    def test_one_chain_rejected(self):
        with pytest.raises(ModelError, match="chains"):
            McmcConfig(chains=1, iterations=2000, burn_in=500, thin=1, seed=0).validate()

    def test_burn_in_bounds(self):
        with pytest.raises(ModelError, match="burn_in"):
            McmcConfig(chains=2, iterations=100, burn_in=100, thin=1, seed=0).validate()

    def test_thinning_counts_retained(self):
        cfg = McmcConfig(chains=2, iterations=3000, burn_in=1000, thin=4, seed=0)
        assert cfg.retained_per_chain() == 500
        cfg.validate()


class TestSpecValidation:
    def test_region_order_mismatch(self):
        spec = small_spec()
        spec.estimates = list(reversed(spec.estimates))
        with pytest.raises(ModelError, match="index different region sets"):
            spec.validate()

    def test_all_degenerate_rejected(self):
        ids = ["A", "B", "C"]
        ests = [make_estimate(r, 0.0, 0.0, flag=ALL_ZERO) for r in ids]
        spec = BymModelSpec(estimates=ests, precision=isolated_precision(ids))
        with pytest.raises(ModelError, match="non-degenerate"):
            spec.validate()

    def test_zero_var_logit_rejected(self):
        ids = ["A", "B"]
        ests = [
            DirectEstimate("A", 0.5, 0.0, 0.0, 0.0, 10, 2, NONE),
            make_estimate("B", 0.2, 1e-3),
        ]
        spec = BymModelSpec(estimates=ests, precision=isolated_precision(ids))
        with pytest.raises(ModelError, match="var_logit"):
            spec.validate()

    def test_bad_prior(self):
        with pytest.raises(ModelError, match="a_eps"):
            Hyperpriors(a_eps=0.0).validate()


class TestGibbsFit:
    def test_deterministic_given_seed(self):
        post1 = gibbs_fit(small_spec(), QUICK)
        post2 = gibbs_fit(small_spec(), QUICK)
        assert np.array_equal(post1.theta_draws, post2.theta_draws)
        assert np.array_equal(post1.sigma2_sp_draws, post2.sigma2_sp_draws)
        assert post1.summaries == post2.summaries

    def test_seed_changes_draws(self):
        other = McmcConfig(chains=2, iterations=1500, burn_in=500, thin=1, seed=100)
        post1 = gibbs_fit(small_spec(), QUICK)
        post2 = gibbs_fit(small_spec(), other)
        assert not np.array_equal(post1.theta_draws, post2.theta_draws)

    def test_sum_to_zero_per_component_every_draw(self):
        ids = [f"R{k}" for k in range(6)]
        rng = np.random.default_rng(4)
        ests = [
            make_estimate(rid, float(rng.uniform(0.1, 0.3)), 5e-4) for rid in ids
        ]
        # two disjoint 3-chains -> two components
        edges = [("R0", "R1"), ("R1", "R2"), ("R3", "R4"), ("R4", "R5")]
        prec = icar_precision(AdjacencyGraph.from_edges(ids, edges))
        post = gibbs_fit(BymModelSpec(estimates=ests, precision=prec), QUICK)
        assert len(prec.component_index) == 2
        for comp in prec.component_index:
            sums = post.s_draws[:, :, comp].sum(axis=2)
            assert np.abs(sums).max() < 1e-10

    def test_symmetric_inputs_give_equal_posteriors(self):
        ids = [f"R{k}" for k in range(5)]
        y_star = float(logit(0.12))
        ests = [make_estimate(rid, 0.12, 4e-4) for rid in ids]
        prec = chain_precision(ids)
        post = gibbs_fit(
            BymModelSpec(estimates=ests, precision=prec),
            McmcConfig(2, 4000, 1000, 1, 21),
        )
        means = np.array([s.theta.mean for s in post.summaries])
        mcse = np.array(
            [s.theta.sd / math.sqrt(s.ess_theta) for s in post.summaries]
        )
        assert np.all(np.abs(means - y_star) < 4 * mcse + 1e-3)
        prev_means = [s.prevalence.mean for s in post.summaries]
        assert max(prev_means) - min(prev_means) < 0.005

    def test_degenerate_zero_region_predicted_positive(self):
        ids = ["R0", "R1", "R2", "R3"]
        ests = [
            make_estimate("R0", 0.15, 4e-4),
            make_estimate("R1", 0.12, 4e-4),
            make_estimate("R2", 0.0, 0.0, flag=ALL_ZERO),
            make_estimate("R3", 0.18, 4e-4),
        ]
        post = gibbs_fit(
            BymModelSpec(estimates=ests, precision=chain_precision(ids)), QUICK
        )
        degen = post.summaries[2]
        assert degen.region_id == "R2"
        assert degen.prevalence.mean > 0.0
        assert degen.prevalence.q025 > 0.0
        draws = expit(post.theta_draws[:, :, 2])
        assert np.all(draws > 0.0)

    def test_prevalence_summaries_strictly_inside_unit_interval(self):
        post = gibbs_fit(small_spec(), QUICK)
        for s in post.summaries:
            for v in (s.prevalence.mean, s.prevalence.q025, s.prevalence.q975):
                assert 0.0 < v < 1.0
            assert s.prevalence.q025 <= s.prevalence.median <= s.prevalence.q975

    def test_conjugate_oracle_spatial_disabled(self):
        # no edges -> S = 0; fixed iid variance -> closed-form shrinkage
        rng = np.random.default_rng(17)
        ids = [f"R{k:02d}" for k in range(12)]
        y = rng.normal(-2.0, 0.6, size=12)
        v = rng.uniform(0.05, 0.4, size=12)
        s2 = 0.25
        ests = [
            DirectEstimate(rid, float(expit(yy)), 0.0, float(yy), float(vv), 50, 5, NONE)
            for rid, yy, vv in zip(ids, y, v)
        ]
        spec = BymModelSpec(
            estimates=ests,
            precision=isolated_precision(ids),
            fixed_sigma2_eps=s2,
        )
        post = gibbs_fit(spec, McmcConfig(2, 3000, 1000, 1, 5))
        # independent closed form: beta0 | Y with marginal variances V + s2
        w = 1.0 / (v + s2)
        beta0_hat = float(np.sum(w * y) / np.sum(w))
        shrink = (y / v + beta0_hat / s2) / (1.0 / v + 1.0 / s2)
        for k, s in enumerate(post.summaries):
            mcse = s.theta.sd / math.sqrt(s.ess_theta)
            assert abs(s.theta.mean - shrink[k]) < 3 * mcse

    def test_w_style_runs(self):
        ids = [f"R{k}" for k in range(5)]
        rng = np.random.default_rng(9)
        ests = [
            make_estimate(rid, float(rng.uniform(0.1, 0.3)), 5e-4) for rid in ids
        ]
        graph = AdjacencyGraph.from_edges(ids, list(zip(ids, ids[1:])), style="W")
        post = gibbs_fit(
            BymModelSpec(estimates=ests, precision=icar_precision(graph)), QUICK
        )
        assert post.meta["style"] == "W"

    def test_b_vs_w_difference_recorded_not_asserted_equal(self):
        # the two weighting styles need not agree exactly; record the gap
        ids = [f"R{k}" for k in range(8)]
        rng = np.random.default_rng(14)
        ests = [
            make_estimate(rid, float(rng.uniform(0.05, 0.3)), float(rng.uniform(2e-4, 8e-4)))
            for rid in ids
        ]
        edges = list(zip(ids, ids[1:])) + [("R0", "R7")]
        cfg = McmcConfig(2, 4000, 2000, 1, 33)
        results = {}
        for style in ("B", "W"):
            graph = AdjacencyGraph.from_edges(ids, edges, style=style)
            post = gibbs_fit(
                BymModelSpec(estimates=ests, precision=icar_precision(graph)), cfg
            )
            results[style] = np.array([s.prevalence.mean for s in post.summaries])
        gap = float(np.abs(results["B"] - results["W"]).max())
        print(f"\nB-vs-W max posterior-mean gap: {gap:.5f}")
        assert math.isfinite(gap)
        # styles agree on the broad level even when not identical
        assert gap < 0.05

    def test_isolated_region_spatial_effect_pinned_to_zero(self):
        ids = ["R0", "R1", "R2", "Z_ISO"]  # sorted order matches estimate order
        rng = np.random.default_rng(2)
        ests = [
            make_estimate(rid, float(rng.uniform(0.1, 0.3)), 5e-4) for rid in ids
        ]
        edges = [("R0", "R1"), ("R1", "R2")]
        prec = icar_precision(AdjacencyGraph.from_edges(ids, edges))
        post = gibbs_fit(BymModelSpec(estimates=ests, precision=prec), QUICK)
        iso_index = list(prec.node_ids).index("Z_ISO")
        assert np.all(post.s_draws[:, :, iso_index] == 0.0)


class TestPosteriorCsv:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        post = gibbs_fit(spec, QUICK)
        rows = post.rows(spec.estimates)
        path = tmp_path / "posterior.csv"
        write_posterior_csv(rows, path, metadata={"seed": "99"})
        loaded = read_posterior_csv(path)
        assert loaded == rows

    @pytest.mark.parametrize("make_spec, posterior_sha, trace_sha", [
        (lambda: degenerate_spec(),
         "aa7f35242257c32089111d2e1696caf9cd9f1d041a99f8a70fdd3b3ad622fb48",
         "79014cf6ea86dfa4fbf129729ea425dd38e4c20797a2dc010227e0e366db01ed"),
        (lambda: two_component_spec(),
         "5e6c03461d5ce3c067c51131715358c3093026f1021cabf287fe33ed33dec804",
         "030fc054a07a41dc3e211791ec9b2cf5cd0857f49f8d1db379582a318b787d7c"),
    ], ids=["degenerate", "two_component"])
    def test_gibbs_output_bytes_are_pinned(self, tmp_path, make_spec, posterior_sha, trace_sha):
        # gibbs_fit is the reference the exact engine is checked against: any
        # change to its draws, its R-hat/ESS or the writers moves these bytes
        spec = make_spec()
        post = gibbs_fit(spec, QUICK)
        write_posterior_csv(post.rows(spec.estimates), tmp_path / "posterior.csv", {"seed": "99"})
        write_trace_csv(post, tmp_path / "trace.csv", {"seed": "99"})
        for name, want in (("posterior.csv", posterior_sha), ("trace.csv", trace_sha)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    @pytest.mark.parametrize("make_spec, posterior_sha, trace_sha", [
        (lambda: degenerate_component_spec(),
         "aa9fb3868731f1f3b481bcd1de1286dd4b1fbaf92b478d3b2150a8c6f24a91c2",
         "6d32a99370b1e4cc571ca29191f88cb2a9df6c7faa0c5f3e91d73e7001eee603"),
        (lambda: two_component_spec(),
         "45af6e6da2c3f8845066cfb7aa33e607c502a3a0f7662c0c51fb9718b1387591",
         "c39d801b3c5f8e43d3348f56bed0083c6b472d3074560b8407219011093537cf"),
    ], ids=["isolated_and_degenerate_component", "two_component"])
    def test_exact_output_bytes_are_pinned(self, tmp_path, make_spec, posterior_sha, trace_sha):
        # exact_fit is what smooth runs: any change to its grid, its draws,
        # its summaries or the writers moves these bytes
        spec = make_spec()
        post = exact_fit(spec, QUICK)
        write_posterior_csv(post.rows(spec.estimates), tmp_path / "posterior.csv", {"seed": "99"})
        write_trace_csv(post, tmp_path / "trace.csv", {"seed": "99"})
        for name, want in (("posterior.csv", posterior_sha), ("trace.csv", trace_sha)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_rows_carry_direct_columns(self):
        spec = small_spec()
        post = gibbs_fit(spec, QUICK)
        rows = post.rows(spec.estimates)
        assert isinstance(rows[0], PosteriorRow)
        for row, est in zip(rows, spec.estimates):
            assert row.region_id == est.region_id
            assert row.direct_p == est.p_hat
            assert row.n == est.n


# ---------------------------------------------------------------------------
# Reference implementations: the chain-by-chain Gibbs sweep with sparse
# neighbour sums, and rhat / ess / summarize on one draw set at a time. The
# lockstep sampler and the batched diagnostics must match them bit for bit.
# ---------------------------------------------------------------------------


def reference_draws(spec, config):
    """Draws of the chain-by-chain sweep: theta, S, beta0, sig2_eps, sig2_sp."""
    from scipy import sparse

    from prevmap.bym import _greedy_coloring

    prec = spec.precision
    n = prec.dimension
    active = np.array([e.likelihood_usable for e in spec.estimates], dtype=bool)
    idx_act = np.flatnonzero(active)
    idx_inact = np.flatnonzero(~active)
    y_act = np.array([spec.estimates[i].logit_y for i in idx_act])
    v_act = np.array([spec.estimates[i].var_logit for i in idx_act])
    inv_v = 1.0 / v_act
    sum_inv_v = float(inv_v.sum())
    k_act, k_inact = len(idx_act), len(idx_inact)
    lik_prec = np.zeros(n)
    lik_prec[idx_act] = inv_v
    adj = sparse.csr_matrix(
        (
            np.concatenate([prec.edge_w, prec.edge_w]),
            (np.concatenate([prec.edge_i, prec.edge_j]), np.concatenate([prec.edge_j, prec.edge_i])),
        ),
        shape=(n, n),
    )
    classes = _greedy_coloring(n, prec.edge_i, prec.edge_j)
    class_rows = [adj[cls] for cls in classes]
    pri = spec.priors
    fixed_e, fixed_s = spec.fixed_sigma2_eps, spec.fixed_sigma2_sp
    init = lambda a, b: b / (a - 1) if a > 1 else b / (a + 1)  # noqa: E731
    kept = config.retained_per_chain()
    theta = np.empty((config.chains, kept, n))
    s_out = np.empty((config.chains, kept, n))
    b_out, e_out, sp_out = (np.empty((config.chains, kept)) for _ in range(3))
    streams = np.random.SeedSequence(config.seed).spawn(config.chains)
    for c in range(config.chains):
        rng = np.random.Generator(np.random.PCG64(streams[c]))
        eps = np.zeros(n)
        eps[idx_act] = y_act - float(y_act.mean())
        s = np.zeros(n)
        sig2e = fixed_e if fixed_e is not None else init(pri.a_eps, pri.b_eps)
        sig2s = fixed_s if fixed_s is not None else init(pri.a_sp, pri.b_sp)
        keep = 0
        for it in range(config.iterations):
            resid = y_act - eps[idx_act] - s[idx_act]
            mu0 = float(np.dot(resid, inv_v)) / sum_inv_v
            beta0 = mu0 + rng.standard_normal() / math.sqrt(sum_inv_v)
            prec_e = inv_v + 1.0 / sig2e
            mu_e = (y_act - beta0 - s[idx_act]) * inv_v / prec_e
            eps[idx_act] = mu_e + rng.standard_normal(k_act) / np.sqrt(prec_e)
            if k_inact:
                eps[idx_inact] = rng.standard_normal(k_inact) * math.sqrt(sig2e)
            lik_term = np.zeros(n)
            lik_term[idx_act] = (y_act - beta0 - eps[idx_act]) * inv_v
            for cls, rows in zip(classes, class_rows):
                nbr_sum = rows @ s
                prec_s = prec.degree[cls] / sig2s + lik_prec[cls]
                mu_s = (nbr_sum / sig2s + lik_term[cls]) / prec_s
                s[cls] = mu_s + rng.standard_normal(len(cls)) / np.sqrt(prec_s)
            for comp in prec.component_index:
                s[comp] -= s[comp].mean()
            if fixed_e is None:
                rate = pri.b_eps + 0.5 * float(np.dot(eps[idx_act], eps[idx_act]))
                sig2e = rate / max(rng.gamma(pri.a_eps + 0.5 * k_act, 1.0), 1e-300)
            if fixed_s is None:
                d = s[prec.edge_i] - s[prec.edge_j] if len(prec.edge_i) else np.zeros(0)
                rate = pri.b_sp + 0.5 * float(np.sum(prec.edge_w * d * d))
                sig2s = rate / max(rng.gamma(pri.a_sp + 0.5 * prec.rank, 1.0), 1e-300)
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                theta[c, keep] = beta0 + eps + s
                s_out[c, keep] = s
                b_out[c, keep], e_out[c, keep], sp_out[c, keep] = beta0, sig2e, sig2s
                keep += 1
    return theta, s_out, b_out, e_out, sp_out


def reference_summarize(draws):
    draws = np.asarray(draws, dtype=float).ravel()
    sd = float(np.std(draws, ddof=1)) if draws.size > 1 else 0.0
    return (
        float(np.mean(draws)),
        float(np.median(draws)),
        sd,
        float(np.quantile(draws, 0.025)),
        float(np.quantile(draws, 0.975)),
    )


def _reference_split(x):
    half = x.shape[1] // 2
    return np.vstack((x[:, :half], x[:, x.shape[1] - half :]))


def _reference_z(x):
    from scipy import stats

    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    return stats.norm.ppf((ranks - 0.5) / x.size)


def _reference_rhat_classic(x):
    m, n = x.shape
    w = float(np.mean(np.var(x, axis=1, ddof=1)))
    b_over_n = float(np.var(x.mean(axis=1), ddof=1))
    if not (math.isfinite(w) and math.isfinite(b_over_n)):
        return float("nan")
    if w == 0.0:
        return float("inf") if b_over_n > 0 else float("nan")
    return math.sqrt(((n - 1) / n * w + b_over_n) / w)


def reference_rhat(x):
    if x.shape[1] < 4 or np.all(x == x.flat[0]):
        return float("nan")
    bulk = _reference_rhat_classic(_reference_z(_reference_split(x)))
    tail = _reference_rhat_classic(_reference_z(_reference_split(np.abs(x - np.median(x)))))
    finite = [b for b in (bulk, tail) if not math.isnan(b)]
    return max(finite) if finite else float("nan")


def reference_ess(x):
    s = _reference_split(x)
    m, n = s.shape
    if n < 4 or np.all(s == s.flat[0]):
        return float("nan")
    rows = []
    for row in s:
        xc = row - row.mean()
        f = np.fft.rfft(xc, 2 * n)
        rows.append(np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n)
    acov = np.vstack(rows)
    w = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = w * (n - 1) / n + float(np.var(s.mean(axis=1), ddof=1))
    if not math.isfinite(var_plus) or var_plus <= 0:
        return float("nan")
    rho = np.empty(n)
    rho[0] = 1.0
    rho[1:] = 1.0 - (w - acov.mean(axis=0)[1:]) / var_plus
    tau = 0.0
    for k in range(n // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0:
            break
        tau += pair
    return float(m * n / max(2.0 * tau - 1.0, 1e-8))


def two_component_spec(**kwargs):
    # components {A0, A2, A4} and {A1, A3} interleave in node order; A5 is isolated
    ids = [f"A{k}" for k in range(6)]
    rng = np.random.default_rng(31)
    ests = [make_estimate(rid, float(rng.uniform(0.05, 0.3)), 5e-4) for rid in ids]
    edges = [("A0", "A2"), ("A2", "A4"), ("A0", "A4"), ("A1", "A3")]
    prec = icar_precision(AdjacencyGraph.from_edges(ids, edges))
    return BymModelSpec(estimates=ests, precision=prec, **kwargs)


def degenerate_component_spec():
    spec = two_component_spec()
    for k in (1, 3):  # every region of the {A1, A3} component
        spec.estimates[k] = make_estimate(f"A{k}", 0.0, 0.0, flag=ALL_ZERO)
    return spec


def degenerate_spec():
    spec = small_spec(n_regions=7, seed=8)
    for k in (1, 4):
        spec.estimates[k] = make_estimate(f"R{k}", 0.0, 0.0, flag=ALL_ZERO)
    return spec


def hub_spec():
    # W weights and a hub with 11 neighbours: padded rows wider than 8
    ids = [f"H{k:02d}" for k in range(12)]
    rng = np.random.default_rng(5)
    ests = [make_estimate(rid, float(rng.uniform(0.05, 0.3)), 8e-4) for rid in ids]
    edges = [("H00", rid) for rid in ids[1:]] + list(zip(ids[1:], ids[2:]))
    prec = icar_precision(AdjacencyGraph.from_edges(ids, edges, style="W"))
    return BymModelSpec(estimates=ests, precision=prec)


def grid_spec():
    # 5 x 9 rook grid, the demo's size: vectors long enough for BLAS and SIMD
    # code paths whose summation order differs from short ones
    ids = [f"G{r}{c}" for r in range(5) for c in range(9)]
    rng = np.random.default_rng(12)
    ests = [make_estimate(rid, float(rng.uniform(0.05, 0.3)), 6e-4) for rid in ids]
    edges = [(f"G{r}{c}", f"G{r}{c + 1}") for r in range(5) for c in range(8)]
    edges += [(f"G{r}{c}", f"G{r + 1}{c}") for r in range(4) for c in range(9)]
    prec = icar_precision(AdjacencyGraph.from_edges(ids, edges))
    return BymModelSpec(estimates=ests, precision=prec)


LOCKSTEP_CASES = {
    "two_components_and_isolated": (two_component_spec, QUICK),
    "degenerate_regions": (degenerate_spec, QUICK),
    "degenerate_component": (degenerate_component_spec, QUICK),
    "fixed_sigma2_eps": (lambda: small_spec(fixed_sigma2_eps=0.04), QUICK),
    "fixed_sigma2_sp": (lambda: small_spec(fixed_sigma2_sp=0.02), QUICK),
    "thin_3": (small_spec, McmcConfig(chains=2, iterations=1700, burn_in=200, thin=3, seed=4)),
    "chains_3": (small_spec, McmcConfig(chains=3, iterations=900, burn_in=400, thin=1, seed=7)),
    "w_style_hub": (hub_spec, QUICK),
    "grid_45": (grid_spec, QUICK),
}


class TestLockstepMatchesChainByChain:
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_draw_for_draw(self, case):
        make_spec, config = LOCKSTEP_CASES[case]
        post = gibbs_fit(make_spec(), config)
        ref = reference_draws(make_spec(), config)
        got = (
            post.theta_draws,
            post.s_draws,
            post.beta0_draws,
            post.sigma2_eps_draws,
            post.sigma2_sp_draws,
        )
        for name, a, b in zip(("theta", "s", "beta0", "sigma2_eps", "sigma2_sp"), got, ref):
            assert np.array_equal(a, b), name

    def test_region_summaries_match_one_region_at_a_time(self):
        post = gibbs_fit(degenerate_spec(), QUICK)
        for r, summary in enumerate(post.summaries):
            theta_r = post.theta_draws[:, :, r]
            assert astuple(summary.theta) == reference_summarize(theta_r)
            assert astuple(summary.prevalence) == reference_summarize(expit(theta_r))
            assert summary.rhat_theta == reference_rhat(theta_r)
            assert summary.ess_theta == reference_ess(theta_r)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_state_names_iteration_and_chain(self):
        spec = small_spec()
        # finite inputs whose precision-weighted residual overflows
        spec.estimates[2] = DirectEstimate("R2", 0.2, 1e-3, 1e308, 1e-300, 100, 10, NONE)
        with pytest.raises(RuntimeError, match=r"non-finite sampler state at iteration 0 of chain 0"):
            gibbs_fit(spec, QUICK)


def _trace_sets():
    rng = np.random.default_rng(2024)
    sets = {
        "random": rng.standard_normal((4, 3, 101)),
        "random_even": rng.standard_normal((3, 4, 64)),
        "autocorrelated": np.cumsum(rng.standard_normal((3, 2, 300)), axis=-1),
        "constant": np.full((2, 3, 50), 1.5),
        "tied": rng.integers(0, 3, size=(4, 2, 40)).astype(float),
        "zero_within_variance": np.repeat(np.arange(3.0)[None, :, None], 2, 0) * np.ones((2, 3, 30)),
        "too_short": rng.standard_normal((2, 2, 3)),
        "long_autocorrelated": np.cumsum(rng.standard_normal((2, 4, 5000)), axis=-1),
    }
    mixed = np.stack([sets["random"][0, :2, :40], sets["tied"][0], np.full((2, 40), 7.0)])
    sets["mixed"] = mixed
    # every draw has a mirror image about the set's median, 0, so each folded
    # value |x - median| is tied with another; with an odd length the split
    # chains drop each chain's middle draw
    half = rng.standard_normal((3, 2, 25))
    sets["symmetric"] = np.concatenate([half, -half[:, ::-1]], axis=-1)
    sets["symmetric_odd"] = np.concatenate([half, np.zeros((3, 2, 1)), -half], axis=-1)
    return sets


class TestBatchedDiagnosticsMatchReference:
    @pytest.mark.parametrize("name", sorted(_trace_sets()))
    def test_rhat_and_ess(self, name):
        batch = _trace_sets()[name]
        want_r = np.array([reference_rhat(x) for x in batch])
        want_e = np.array([reference_ess(x) for x in batch])
        assert np.array_equal(rhat(batch), want_r, equal_nan=True)
        assert np.array_equal(ess(batch), want_e, equal_nan=True)
        for x, r, e in zip(batch, want_r, want_e):
            got_r, got_e = rhat(x), ess(x)
            assert isinstance(got_r, float) and isinstance(got_e, float)
            assert np.array_equal(got_r, r, equal_nan=True)
            assert np.array_equal(got_e, e, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(_trace_sets()))
    def test_summarize(self, name):
        batch = _trace_sets()[name]
        got = summarize(batch, batched=True)
        assert [astuple(s) for s in got] == [reference_summarize(x) for x in batch]
        assert astuple(summarize(batch[0])) == reference_summarize(batch[0])


# ties, signed zeros, infinities, NaNs and values whose sums overflow
SUMMARY_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, math.inf, -math.inf, math.nan]
) | st.floats(width=64)


def _same_bits(got, want):
    """Equal bit for bit, any NaN matching any NaN (payloads are not kept)."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 4), chains=st.integers(1, 3), size=st.integers(1, 9), data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_summarize_is_numpy_bit_for_bit(rows, chains, size, data):
    # one sort per draw set gives np.median's and np.quantile's bits
    n = rows * chains * size
    batch = np.array(data.draw(st.lists(SUMMARY_VALUES, min_size=n, max_size=n)))
    batch = batch.reshape(rows, chains, size)
    want = [reference_summarize(x) for x in batch]
    assert _same_bits([astuple(s) for s in summarize(batch, batched=True)], want)
    assert _same_bits([astuple(summarize(x)) for x in batch], want)
