import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logit

from conftest import haswell_sha256
from prevmap.cli import main
from prevmap.data_model import SurveyTable, validate_dataset
from prevmap.direct import direct_prevalence
from prevmap.errors import PrevmapError, SchemaError
from prevmap.graph import build_adjacency
from prevmap.synthetic import (
    SamplingPlan,
    Scenario,
    SyntheticTruth,
    load_scenario,
    make_grid_regions,
    read_truth_csv,
    sample_survey,
    spatial_truth,
    write_truth_csv,
)

DEMO_CFG = Path(__file__).resolve().parents[1] / "demo.cfg"


class TestGridRegions:
    def test_two_squares_same_country(self):
        regions = make_grid_regions(1, 2)
        assert [r.region_id for r in regions] == ["R_0_0", "R_0_1"]
        assert {r.country for r in regions} == {"C1"}
        graph = build_adjacency(regions)
        assert ("R_0_0", "R_0_1") in graph.edges

    def test_3x3_with_break_keeps_cross_group_adjacency(self):
        regions = make_grid_regions(3, 3, (1,))
        assert len(regions) == 9
        assert {r.country for r in regions} == {"C1", "C2"}
        by_id = {r.region_id: r for r in regions}
        assert by_id["R_0_1"].country == "C1"
        assert by_id["R_0_2"].country == "C2"
        graph = build_adjacency(regions)
        assert ("R_0_1", "R_0_2") in graph.edges  # edge across the break

    def test_45_regions_three_groups(self):
        regions = make_grid_regions(5, 9, (3, 6))
        assert len(regions) == 45
        counts = {}
        for r in regions:
            counts[r.country] = counts.get(r.country, 0) + 1
        assert counts == {"C1": 20, "C2": 15, "C3": 10}

    def test_geometry_valid(self):
        for region in make_grid_regions(2, 2):
            region.validate()


class TestSpatialTruth:
    def test_sd_zero_constant_half(self):
        regions = make_grid_regions(2, 2)
        truth = spatial_truth(regions, 0.0, 0.0, seed=1)
        assert all(v == 0.5 for v in truth.values())

    def test_sd_zero_matches_base(self):
        regions = make_grid_regions(2, 3)
        truth = spatial_truth(regions, float(logit(0.05)), 0.0, seed=1)
        assert all(v == pytest.approx(0.05, abs=1e-12) for v in truth.values())

    def test_reproducible(self):
        regions = make_grid_regions(3, 3)
        a = spatial_truth(regions, -2.0, 0.5, seed=42)
        b = spatial_truth(regions, -2.0, 0.5, seed=42)
        assert a == b
        c = spatial_truth(regions, -2.0, 0.5, seed=43)
        assert a != c

    def test_neighbors_positively_correlated(self):
        regions = make_grid_regions(4, 4)
        graph = build_adjacency(regions)
        edges = sorted(graph.edges)
        stats = []
        for rep in range(100):
            truth = spatial_truth(regions, -2.0, 0.6, seed=rep)
            x = {rid: logit(truth[rid]) for rid in truth}
            vals = np.array(list(x.values()))
            centered = {rid: x[rid] - vals.mean() for rid in x}
            num = sum(centered[a] * centered[b] for a, b in edges) / len(edges)
            den = float(np.mean([(v - vals.mean()) ** 2 for v in vals]))
            stats.append(num / den)
        assert np.mean(stats) > 0.2  # Moran-style edge correlation clearly positive

    def test_simulate_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 2000 regions: a dense eigendecomposition this size rounds differently per thread count
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "rows = 40\ncols = 50\ngroup_breaks = 16,33\nbase_logit = -2.4\n"
            "spatial_sd = 0.45\nclusters_per_region = 1:8\nhouseholds_per_cluster = 22\n"
            "weight_dispersion = 2.0\nseed = 3\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        truths = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "prevmap.cli", "simulate", "--config", str(config),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            truths.append((out / "truth.csv").read_bytes())
        assert truths[0] == truths[1]


class TestSampleSurvey:
    def test_single_cluster_equal_probability_weights(self):
        regions = make_grid_regions(1, 1)
        truth = SyntheticTruth(
            regions=regions,
            true_prevalence={"R_0_0": 0.5},
            plan=SamplingPlan((1, 1), 4, weight_dispersion=1.0),
            seed=0,
        )
        ds = sample_survey(truth)
        assert len(ds.records) == 4
        assert len(set(ds.records.cluster.tolist())) == 1
        assert set(ds.records.weight.tolist()) == {1.0}

    def test_truth_outside_open_interval_rejected(self):
        regions = make_grid_regions(1, 1)
        for bad in (0.0, 1.0):
            truth = SyntheticTruth(
                regions=regions,
                true_prevalence={"R_0_0": bad},
                plan=SamplingPlan((1, 1), 4),
                seed=0,
            )
            with pytest.raises(PrevmapError, match="strictly in"):
                truth.validate()

    def test_reproducible(self):
        regions = make_grid_regions(2, 2)
        prev = spatial_truth(regions, -2.0, 0.3, seed=5)
        plan = SamplingPlan((2, 6), 10, 2.0)
        t = SyntheticTruth(regions, prev, plan, seed=5)
        ds1, ds2 = sample_survey(t), sample_survey(t)
        assert ds1.records == ds2.records
        other = SyntheticTruth(regions, prev, plan, seed=6)
        assert sample_survey(other).records != ds1.records

    def test_generated_dataset_passes_validation(self):
        regions = make_grid_regions(3, 3, (1,))
        prev = spatial_truth(regions, -2.2, 0.4, seed=11)
        ds = sample_survey(
            SyntheticTruth(regions, prev, SamplingPlan((3, 8), 12, 1.8), seed=11)
        )
        validate_dataset(ds)

    def test_cluster_count_range_respected(self):
        regions = make_grid_regions(1, 2)
        prev = {r.region_id: 0.2 for r in regions}
        ds = sample_survey(
            SyntheticTruth(regions, prev, SamplingPlan((3, 7), 5), seed=3)
        )
        region = ds.records.column("region_id")
        for rid in ("R_0_0", "R_0_1"):
            m = len(set(ds.records.cluster[region == rid].tolist()))
            assert 3 <= m <= 7

    def test_weighted_unbiased_and_unweighted_biased(self):
        # 200 seeded surveys of one region with truth 0.10 and outcome-linked
        # oversampling: the design-weighted mean stays near the truth while
        # the unweighted mean drifts up.
        regions = make_grid_regions(1, 1)
        plan = SamplingPlan((30, 30), 25, weight_dispersion=2.0)
        p_true = 0.10
        weighted, unweighted = [], []
        for seed in range(200):
            truth = SyntheticTruth(regions, {"R_0_0": p_true}, plan, seed=seed)
            ds = sample_survey(truth)
            weighted.append(direct_prevalence(ds.records))
            ys = ds.records.outcome.tolist()
            unweighted.append(sum(ys) / len(ys))
        w_err = abs(float(np.mean(weighted)) - p_true)
        u_err = abs(float(np.mean(unweighted)) - p_true)
        assert w_err < 0.01
        assert u_err > w_err
        assert float(np.mean(unweighted)) > p_true + 0.01  # oversampling inflates


# ---------------------------------------------------------------------------
# The per-cluster survey loop: ``sample_survey`` draws each cluster's
# uniforms in one call and computes on arrays, and must match it bit for bit.
# ---------------------------------------------------------------------------


def reference_survey(truth):
    """``sample_survey`` one cluster at a time, with scalar arithmetic."""
    from scipy.special import expit

    plan = truth.plan
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([truth.seed, 1])))
    rho = plan.weight_dispersion
    share = plan.high_risk_share
    q_hi = share * rho / (share * rho + (1.0 - share))
    k = plan.households_per_cluster
    regions = sorted(truth.regions, key=lambda b: b.region_id)
    cluster_region, cluster_ids, weights, outcomes = [], [], [], []
    lo, hi = plan.clusters_per_region
    for code, boundary in enumerate(regions):
        rid = boundary.region_id
        p_region = truth.true_prevalence[rid]
        n_clusters = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        for j in range(n_clusters):
            if plan.cluster_sd > 0:
                p_c = float(expit(logit(p_region) + rng.normal(0.0, plan.cluster_sd)))
            else:
                p_c = p_region
            p_hi = min(plan.risk_ratio * p_c, 0.95)
            p_lo = (p_c - share * p_hi) / (1.0 - share)
            p_lo = min(max(p_lo, 0.0), 1.0)
            is_hi = rng.random(k) < q_hi
            p_vec = np.where(is_hi, p_hi, p_lo)
            outcomes.append(rng.random(k) < p_vec)
            weights.append(np.where(is_hi, 1.0 / rho, 1.0))
            cluster_region.append(code)
            cluster_ids.append(f"{rid}-c{j:03d}")
    return SurveyTable(
        region=np.repeat(np.array(cluster_region, dtype=np.intp), k),
        cluster=np.repeat(np.arange(len(cluster_ids), dtype=np.intp), k),
        stratum=np.zeros(k * len(cluster_ids), dtype=np.intp),
        weight=np.concatenate(weights),
        outcome=np.concatenate(outcomes).astype(np.int8),
        region_ids=tuple(b.region_id for b in regions),
        cluster_ids=tuple(cluster_ids),
    )


def demo_truth(seed=None, **plan):
    truth = load_scenario(DEMO_CFG).realize(seed)
    return replace(truth, plan=replace(truth.plan, **plan))


@pytest.mark.parametrize("truth", [
    *(pytest.param(lambda seed=seed: demo_truth(seed), id=f"demo_seed{seed}") for seed in (1, 3, 7, 11)),
    pytest.param(lambda: demo_truth(cluster_sd=0.0), id="no_cluster_shock"),
    pytest.param(lambda: demo_truth(clusters_per_region=(6, 6)), id="fixed_cluster_count"),
    pytest.param(lambda: demo_truth(weight_dispersion=1.0), id="equal_weights"),
    pytest.param(lambda: demo_truth(3, clusters_per_region=(1, 8)), id="one_to_eight_clusters"),
])
def test_sample_survey_matches_the_per_cluster_loop(truth):
    truth = truth()
    got, want = sample_survey(truth).records, reference_survey(truth)
    for name in ("region", "cluster", "stratum", "weight", "outcome"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("region_ids", "cluster_ids", "stratum_ids"):
        assert getattr(got, name) == getattr(want, name), name



@pytest.mark.parametrize("seed, hashes", [
    (7, {"records.csv": "e999af192a8cd6982ceed0af356631e04df2e09bed71f6648b92a799bd573a4d",
         "boundaries.geojson": "01847b4d3b6f7cc75ce240aee81f4e7a02bbfffc083e3daf2a4b4cccd8db0cee",
         "truth.csv": "39022083d3e7f0515a57cb22fb4d0141bc8495e269495417ade2c307f832b569"}),
    (3, {"records.csv": "380dd13c3b4ba59436f2067794deaa5a86e1618a45fe9793e3156d37b970b75b",
         "boundaries.geojson": "0592cd98f25fa76ea1f4b3a3404c0a15fc5d9eed6b7f4a6150461851c22bf64a",
         "truth.csv": "fc9da787e7f2e3eed8f941cb3e903292ebbb952350f16157d1f29e0d4faaa7c3"}),
])
def test_simulate_output_bytes_are_pinned(tmp_path, seed, hashes):
    # any change to the truth surface, the survey's draws or the writers
    # moves these bytes
    argv = ["simulate", "--config", str(DEMO_CFG), "--seed", str(seed), "--out", "."]
    script = f"from prevmap.cli import main; raise SystemExit(main({argv!r}))"
    assert haswell_sha256(tmp_path, script) == hashes

class TestScenario:
    def test_demo_config_parses(self):
        scenario = load_scenario("demo.cfg")
        assert scenario.rows == 5 and scenario.cols == 9
        assert scenario.group_breaks == (3, 6)
        assert scenario.clusters_per_region == (14, 88)
        truth = scenario.realize()
        assert len(truth.regions) == 45

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rows = 2\ncols = 2\n")
        with pytest.raises(SchemaError, match="base_logit"):
            load_scenario(path)

    def test_unknown_key_named(self, tmp_path, capsys):
        # a misspelled optional key used to run with the default
        path = tmp_path / "typo.cfg"
        path.write_text(Path("demo.cfg").read_text() + "cluster_SD = 0.5\n")
        with pytest.raises(SchemaError, match="unknown scenario keys: cluster_SD$"):
            load_scenario(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "cluster_SD" in capsys.readouterr().err

    @staticmethod
    def assert_plan_value_exits_2(tmp_path, capsys, key, value):
        lines = [line for line in Path("demo.cfg").read_text().splitlines()
                 if line.split("=")[0].strip() != key]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        with pytest.raises(PrevmapError, match=key):
            load_scenario(path).plan().validate()
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["weight_dispersion", "risk_ratio", "cluster_sd"])
    def test_nan_plan_value_exits_2(self, tmp_path, capsys, key):
        # NaN fails no `x < bound` test: it drew an equal-weight survey or no cluster shocks
        self.assert_plan_value_exits_2(tmp_path, capsys, key, "nan")

    @pytest.mark.parametrize("key, value", [
        ("weight_dispersion", "inf"),  # wrote every weight as 1.0
        ("cluster_sd", "inf"),  # put every cluster at prevalence 0 or 1
        ("risk_ratio", "0"),
        ("risk_ratio", "-1"),
    ])
    def test_infinite_or_non_positive_plan_value_exits_2(self, tmp_path, capsys, key, value):
        self.assert_plan_value_exits_2(tmp_path, capsys, key, value)

    def test_realize_names_a_seed_out_of_range(self):
        # SeedSequence's own ValueError did not name the seed
        scenario = load_scenario(DEMO_CFG)
        for seed in (-1, 2**64):
            with pytest.raises(PrevmapError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
                scenario.realize(seed)

    def test_optional_keys_default_to_the_sampling_plan(self, tmp_path):
        # demo.cfg leaves out every optional key
        assert load_scenario("demo.cfg").plan() == SamplingPlan((14, 88), 22, 2.0)
        path = tmp_path / "s.cfg"
        path.write_text(
            Path("demo.cfg").read_text() + "cluster_sd = 0.5\nhigh_risk_share = 0.2\nrisk_ratio = 3\n"
        )
        plan = load_scenario(path).plan()
        assert (plan.cluster_sd, plan.high_risk_share, plan.risk_ratio) == (0.5, 0.2, 3.0)

    def test_fixed_cluster_count_syntax(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "rows = 1\ncols = 2\ngroup_breaks =\nbase_logit = -2\nspatial_sd = 0\n"
            "clusters_per_region = 6\nhouseholds_per_cluster = 4\n"
            "weight_dispersion = 1.0\nseed = 1\n"
        )
        scenario = load_scenario(path)
        assert scenario.clusters_per_region == (6, 6)
        ds = sample_survey(scenario.realize())
        assert len(ds.records) == 2 * 6 * 4

    def test_realize_deterministic(self):
        scenario = Scenario(
            rows=2, cols=3, group_breaks=(1,), base_logit=-2.0, spatial_sd=0.4,
            clusters_per_region=(2, 5), households_per_cluster=6,
            weight_dispersion=1.5, seed=9,
        )
        t1, t2 = scenario.realize(), scenario.realize()
        assert t1.true_prevalence == t2.true_prevalence
        assert sample_survey(t1).records == sample_survey(t2).records

    def test_seed_override(self):
        scenario = Scenario(
            rows=1, cols=2, group_breaks=(), base_logit=-2.0, spatial_sd=0.3,
            clusters_per_region=(2, 2), households_per_cluster=5,
            weight_dispersion=1.0, seed=1,
        )
        assert scenario.realize(7).true_prevalence != scenario.realize(8).true_prevalence

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_key_given_twice_exits_2(self, tmp_path, capsys, command):
        # the second line silently won: rows = 3 wrote 27 regions
        path = tmp_path / "twice.cfg"
        path.write_text(DEMO_CFG.read_text() + "rows = 3\n")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: scenario key 'rows' given twice\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("rows 3", "expected 'key = value', got 'rows 3'"),
        ("clusters_per_region = 9:2", "bad clusters_per_region range (9, 2)"),
        ("rows = 0", "rows and cols must be >= 1"),
        ("spatial_sd = -1", "spatial_sd must be >= 0"),
        ("high_risk_share = 0.5\nrisk_ratio = 2.5", "risk_ratio * high_risk_share must stay below 1"),
    ], ids=["no_equals", "reversed_cluster_range", "no_rows", "negative_spatial_sd", "high_risk_share"])
    def test_bad_scenario_line_exits_2(self, tmp_path, capsys, line, message):
        keys = {part.split("=")[0].strip() for part in line.splitlines()}
        lines = [kept for kept in DEMO_CFG.read_text().splitlines()
                 if kept.split("=")[0].strip() not in keys]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines + [line]) + "\n")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        values = {"R_0_0": 0.123456789, "R_0_1": 0.05}
        path = tmp_path / "truth.csv"
        write_truth_csv(values, path, metadata={"seed": "1"})
        assert read_truth_csv(path) == values
