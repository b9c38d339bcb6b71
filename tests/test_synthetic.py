import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logit

from prevmap.data_model import validate_dataset
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


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        values = {"R_0_0": 0.123456789, "R_0_1": 0.05}
        path = tmp_path / "truth.csv"
        write_truth_csv(values, path, metadata={"seed": "1"})
        assert read_truth_csv(path) == values
