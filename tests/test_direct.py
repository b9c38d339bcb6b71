import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import boundary, record, square
from prevmap.data_model import IndividualRecord, SurveyDataset, SurveyTable
from prevmap.direct import (
    ALL_ONE,
    ALL_ZERO,
    NONE,
    SINGLE_CLUSTER,
    ZERO_VARIANCE,
    DirectEstimate,
    direct_prevalence,
    direct_variance,
    estimate_all,
    estimate_region,
    logit_transform,
    read_direct_csv,
    write_direct_csv,
)
from prevmap.errors import EmptyDatasetError


def recs(pairs, region="R1", cluster_of=None):
    """Records from (weight, outcome) pairs; one cluster unless cluster_of given."""
    out = []
    for i, (w, y) in enumerate(pairs):
        cid = cluster_of[i] if cluster_of else "c0"
        out.append(IndividualRecord(region, cid, float(w), int(y)))
    return out


def brute_force_prevalence(records):
    """Independent oracle: explicit sums with math.fsum."""
    num = math.fsum(r.weight * r.outcome for r in records)
    den = math.fsum(r.weight for r in records)
    return num / den


class TestDirectPrevalence:
    def test_equal_weights(self):
        assert direct_prevalence(recs([(1, 1), (1, 0), (1, 1), (1, 0)])) == 0.5

    def test_hand_computed_ratio(self):
        # sum(w*y) = 1, sum(w) = 4
        assert direct_prevalence(recs([(1, 1), (3, 0)])) == 0.25

    def test_all_zero(self):
        assert direct_prevalence(recs([(2, 0), (5, 0)])) == 0.0

    def test_empty_is_error(self):
        with pytest.raises(EmptyDatasetError):
            direct_prevalence([])

    @pytest.mark.parametrize("estimate, message", [
        (direct_prevalence, "cannot estimate prevalence from zero records"),
        (lambda records: direct_variance(records, 0.5), "cannot estimate variance from zero records"),
    ], ids=["prevalence", "variance"])
    @pytest.mark.parametrize("records", [[], SurveyTable.from_records([])], ids=["list", "table"])
    def test_zero_records_named(self, estimate, message, records):
        with pytest.raises(EmptyDatasetError, match=f"^{message}$"):
            estimate(records)

    def test_mixed_regions_rejected(self):
        rows = [record("R1", "c1", 1.0, 0), record("R2", "c2", 1.0, 0)]
        with pytest.raises(ValueError, match="multiple regions"):
            direct_prevalence(rows)

    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100, allow_nan=False),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=12,
        ),
        scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_weight_scale_invariance(self, pairs, scale):
        base = recs(pairs, cluster_of=[f"c{i % 3}" for i in range(len(pairs))])
        scaled = recs(
            [(w * scale, y) for w, y in pairs],
            cluster_of=[f"c{i % 3}" for i in range(len(pairs))],
        )
        p1, p2 = direct_prevalence(base), direct_prevalence(scaled)
        assert p1 == pytest.approx(p2, rel=1e-12, abs=1e-15)
        if len({r.cluster_id for r in base}) >= 2:
            v1 = direct_variance(base, p1)
            v2 = direct_variance(scaled, p2)
            assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-18)

    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=50, allow_nan=False),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_brute_force(self, pairs):
        rows = recs(pairs)
        assert abs(direct_prevalence(rows) - brute_force_prevalence(rows)) <= 1e-12


class TestDirectVariance:
    def test_worked_two_cluster_example(self):
        # clusters A: outcomes (1,1); B: (0,0); all weights 1
        rows = recs([(1, 1), (1, 1), (1, 0), (1, 0)], cluster_of=["A", "A", "B", "B"])
        p = direct_prevalence(rows)
        assert p == 0.5
        # z_A = 1, z_B = -1, W = 4: var = (2/1) * 2 / 16 = 0.25 exactly
        assert direct_variance(rows, p) == 0.25

    def test_no_between_cluster_variation(self):
        rows = recs([(1, 1), (1, 1), (2, 1), (3, 1)], cluster_of=["A", "A", "B", "B"])
        assert direct_variance(rows, 1.0) == 0.0

    def test_balanced_clusters_zero_variance(self):
        # z_c = 0 in each cluster even though outcomes vary within
        rows = recs([(1, 1), (1, 0), (1, 0), (1, 1)], cluster_of=["A", "A", "B", "B"])
        p = direct_prevalence(rows)
        assert p == 0.5
        assert direct_variance(rows, p) == 0.0

    def test_single_cluster_is_nan(self):
        rows = recs([(1, 1), (1, 0)])
        assert math.isnan(direct_variance(rows, 0.5))

    def test_stratified_hand_value(self):
        rows = recs(
            [(1, 1), (1, 0), (1, 1), (1, 0)],
            cluster_of=["a1", "a2", "b1", "b2"],
        )
        rows = [
            IndividualRecord(r.region_id, r.cluster_id, r.weight, r.outcome,
                             "A" if r.cluster_id.startswith("a") else "B")
            for r in rows
        ]
        # per stratum: (2/1) * (0.25 + 0.25) = 1; total 2 / W^2 = 2/16
        assert direct_variance(rows, 0.5) == pytest.approx(0.125, abs=1e-15)


class TestLogitTransform:
    def test_hand_delta_method(self):
        logit_y, var_logit = logit_transform(0.5, 0.01)
        assert logit_y == 0.0
        assert var_logit == pytest.approx(0.16, abs=1e-15)

    def test_zero_variance(self):
        assert logit_transform(0.5, 0.0) == (0.0, 0.0)

    def test_boundary_withheld(self):
        for p in (0.0, 1.0):
            logit_y, var_logit = logit_transform(p, 0.0)
            assert math.isnan(logit_y) and math.isnan(var_logit)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        var_p=st.floats(min_value=0, max_value=0.25),
    )
    def test_delta_identity(self, p, var_p):
        _, var_logit = logit_transform(p, var_p)
        assert abs(var_logit * (p * (1 - p)) ** 2 - var_p) <= 1e-12


class TestEstimateAll:
    @staticmethod
    def dataset():
        records = recs([(1, 1), (3, 0)], region="Ra", cluster_of=["x1", "x2"])
        records += recs(
            [(1, 1), (1, 1), (1, 0), (1, 0)],
            region="Rb",
            cluster_of=["A", "A", "B", "B"],
        )
        regions = [boundary("Ra", square(0, 0)), boundary("Rb", square(1, 0))]
        return records, regions

    def test_composition_of_hand_oracles(self):
        records, regions = self.dataset()
        estimates = estimate_all(SurveyDataset(SurveyTable.from_records(records), regions))
        assert [e.region_id for e in estimates] == ["Ra", "Rb"]
        ra, rb = estimates
        assert ra.p_hat == 0.25 and ra.n == 2 and ra.m_clusters == 2
        assert rb.p_hat == 0.5 and rb.var_p == 0.25 and rb.degenerate == NONE
        assert rb.logit_y == 0.0
        assert rb.var_logit == pytest.approx(0.25 / 0.0625, abs=1e-12)

    def test_all_one_region_flagged_others_unaffected(self):
        records, regions = self.dataset()
        records += recs(
            [(1, 1), (2, 1), (1, 1)], region="Rc", cluster_of=["u", "u", "v"]
        )
        regions.append(boundary("Rc", square(2, 0)))
        estimates = estimate_all(SurveyDataset(SurveyTable.from_records(records), regions))
        by_id = {e.region_id: e for e in estimates}
        assert by_id["Rc"].degenerate == ALL_ONE
        assert math.isnan(by_id["Rc"].logit_y)
        assert by_id["Rc"].var_p == 0.0
        assert by_id["Rb"].degenerate == NONE

    def test_all_zero_flag(self):
        est = estimate_region("R", recs([(1, 0), (1, 0)], cluster_of=["A", "B"]))
        assert est.degenerate == ALL_ZERO and est.p_hat == 0.0

    def test_single_cluster_flag(self):
        est = estimate_region("R", recs([(1, 1), (1, 0)]))
        assert est.degenerate == SINGLE_CLUSTER
        assert math.isnan(est.var_p) and math.isnan(est.logit_y)

    def test_equal_cluster_means_flag_zero_variance(self):
        rows = recs([(1, 1), (1, 0), (2, 1), (2, 0)], cluster_of=["A", "A", "B", "B"])
        est = estimate_region("R", rows)
        assert est.degenerate == ZERO_VARIANCE and not est.likelihood_usable
        assert est.p_hat == 0.5 and est.var_p == 0.0
        assert math.isnan(est.logit_y) and math.isnan(est.var_logit)

    def test_rounding_level_variance_flags_zero_variance(self):
        # both clusters have weighted mean 1/3, but p_hat and the z_c round,
        # so the computed variance is not exactly 0
        rows = recs([(0.1, 1), (0.2, 0), (0.1, 1), (0.2, 0)], cluster_of=["A", "A", "B", "B"])
        est = estimate_region("R", rows)
        assert 0.0 < est.var_p < 1e-30
        assert est.degenerate == ZERO_VARIANCE and not est.likelihood_usable
        assert math.isnan(est.logit_y) and math.isnan(est.var_logit)

    @settings(max_examples=200, deadline=None)
    @given(clusters=st.lists(
        st.lists(st.tuples(st.integers(1, 40), st.integers(0, 1)), min_size=1, max_size=6),
        min_size=2, max_size=5,
    ))
    def test_distinct_cluster_means_are_never_flagged(self, clusters):
        # weights are multiples of 1/4, so the exact means are far apart when
        # they differ at all
        means = {Fraction(sum(w * y for w, y in c), sum(w for w, _ in c)) for c in clusters}
        assume(len(means) > 1)
        pairs = [(w / 4, y) for c in clusters for w, y in c]
        cluster_of = [f"c{k}" for k, c in enumerate(clusters) for _ in c]
        est = estimate_region("R", recs(pairs, cluster_of=cluster_of))
        assert est.degenerate == NONE and est.var_p > 0

    def test_boundary_beats_single_cluster(self):
        est = estimate_region("R", recs([(1, 0), (2, 0)]))
        assert est.degenerate == ALL_ZERO

    def test_var_logit_consistency_across_dataset(self):
        rng = np.random.default_rng(42)
        records = []
        regions = []
        for k in range(10):
            rid = f"R{k:02d}"
            regions.append(boundary(rid, square(k, 0)))
            for c in range(4):
                for _ in range(6):
                    records.append(
                        IndividualRecord(
                            rid,
                            f"{rid}-c{c}",
                            float(rng.uniform(0.2, 3.0)),
                            int(rng.random() < 0.3),
                        )
                    )
        estimates = estimate_all(
            SurveyDataset(records=SurveyTable.from_records(records), regions=regions)
        )
        checked = 0
        for e in estimates:
            if e.degenerate != NONE:
                continue
            assert abs(e.var_logit * (e.p_hat * (1 - e.p_hat)) ** 2 - e.var_p) <= 1e-12
            checked += 1
        assert checked >= 5


class TestDirectCsv:
    def test_round_trip_with_nan(self, tmp_path):
        estimates = [
            DirectEstimate("Ra", 0.25, 0.01, math.log(1 / 3), 0.284, 10, 3, NONE),
            DirectEstimate(
                "Rb", 0.0, 0.0, float("nan"), float("nan"), 5, 2, ALL_ZERO
            ),
            DirectEstimate(
                "Rc", 0.4, float("nan"), float("nan"), float("nan"), 4, 1, SINGLE_CLUSTER
            ),
        ]
        path = tmp_path / "direct.csv"
        write_direct_csv(estimates, path, metadata={"seed": "3"})
        loaded = read_direct_csv(path)
        assert len(loaded) == 3
        for orig, back in zip(estimates, loaded):
            assert back.region_id == orig.region_id
            assert back.n == orig.n and back.m_clusters == orig.m_clusters
            assert back.degenerate == orig.degenerate
            for field in ("p_hat", "var_p", "logit_y", "var_logit"):
                a, b = getattr(orig, field), getattr(back, field)
                assert (math.isnan(a) and math.isnan(b)) or a == b
