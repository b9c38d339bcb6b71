"""Synthetic multistage cluster surveys over a known prevalence surface.

Since the real microdata behind this kind of analysis is access-restricted,
calibration studies and the shippable demo run on generated datasets: a grid
of unit-square regions split into country-like groups, a spatially correlated
true prevalence surface, and a two-stage sampling design whose inclusion
probabilities are deliberately correlated with the outcome. High-risk
individuals are oversampled by the weight-dispersion factor, so unweighted
means are biased while design-weighted estimation stays approximately
unbiased; that is exactly the failure mode the weighted estimator corrects.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit, logit

from .data_model import (
    RegionBoundary,
    SurveyDataset,
    SurveyTable,
    data_lines,
    read_table,
    write_table,
)
from .errors import PrevmapError, SchemaError
from .graph import build_adjacency, icar_precision


@dataclass(frozen=True)
class SamplingPlan:
    """Two-stage design: clusters per region, individuals per cluster.

    ``clusters_per_region`` is an inclusive (low, high) range, drawn uniformly
    per region; use (k, k) for a fixed count. ``weight_dispersion`` is the
    oversampling factor applied to the high-risk stratum (1 = equal
    probabilities, equal weights).
    """

    clusters_per_region: tuple[int, int]
    households_per_cluster: int
    weight_dispersion: float = 1.0
    cluster_sd: float = 0.3
    high_risk_share: float = 0.3
    risk_ratio: float = 2.0

    def validate(self) -> None:
        lo, hi = self.clusters_per_region
        if not (1 <= lo <= hi):
            raise PrevmapError(f"bad clusters_per_region range ({lo}, {hi})")
        if self.households_per_cluster < 1:
            raise PrevmapError("households_per_cluster must be >= 1")
        if self.weight_dispersion < 1.0:
            raise PrevmapError("weight_dispersion must be >= 1")
        if not 0.0 < self.high_risk_share < 1.0:
            raise PrevmapError("high_risk_share must be in (0, 1)")
        if self.risk_ratio * self.high_risk_share >= 1.0:
            raise PrevmapError("risk_ratio * high_risk_share must stay below 1")
        if self.cluster_sd < 0:
            raise PrevmapError("cluster_sd must be >= 0")


@dataclass
class SyntheticTruth:
    """Known per-region prevalence plus the sampling plan used to survey it."""

    regions: list[RegionBoundary]
    true_prevalence: dict[str, float]
    plan: SamplingPlan
    seed: int

    def validate(self) -> None:
        self.plan.validate()
        region_ids = {b.region_id for b in self.regions}
        if set(self.true_prevalence) != region_ids:
            raise PrevmapError("true_prevalence keys do not match the regions")
        for rid, p in self.true_prevalence.items():
            if not 0.0 < p < 1.0:
                raise PrevmapError(
                    f"true prevalence for {rid!r} must be strictly in (0, 1), got {p}"
                )


def make_grid_regions(
    rows: int, cols: int, group_breaks: Sequence[int] = ()
) -> list[RegionBoundary]:
    """rows x cols unit squares named R_<row>_<col>.

    ``group_breaks`` lists column indices after which a new country group
    starts, emulating a multi-country study area; adjacency is built later
    without regard to the grouping.
    """
    if rows < 1 or cols < 1:
        raise PrevmapError("rows and cols must be >= 1")
    breaks = sorted(set(group_breaks))
    regions = []
    for r in range(rows):
        for c in range(cols):
            ring = (
                (float(c), float(r)),
                (float(c + 1), float(r)),
                (float(c + 1), float(r + 1)),
                (float(c), float(r + 1)),
                (float(c), float(r)),
            )
            group = sum(1 for b in breaks if c > b)
            regions.append(
                RegionBoundary(
                    region_id=f"R_{r}_{c}",
                    geometry=((ring,),),
                    country=f"C{group + 1}",
                )
            )
    return regions


def spatial_truth(
    regions: Sequence[RegionBoundary],
    base_logit: float,
    spatial_sd: float,
    seed: int,
) -> dict[str, float]:
    """Prevalence surface with spatially correlated logits.

    The logit surface is spatial_sd times one draw of the unit-scale
    intrinsic autoregression over the region graph, summing to zero over
    each connected component (an isolated region gets 0), mapped through
    expit(base_logit + surface). The draw comes from the exact engine's
    banded sampler ``prevmap.exact.icar_draws`` on one BLAS thread, so a
    seed gives the same surface whatever the BLAS thread count.
    spatial_sd = 0 gives a constant map.
    """
    if spatial_sd < 0:
        raise PrevmapError("spatial_sd must be >= 0")
    ids = sorted(b.region_id for b in regions)
    if spatial_sd == 0 or len(ids) < 2:
        return {rid: float(expit(base_logit)) for rid in ids}
    from .exact import icar_draws, rcm_components  # brings in scipy.linalg

    prec = icar_precision(build_adjacency(list(regions)))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    components = rcm_components(prec)
    surface = np.empty(prec.dimension)
    noise = rng.standard_normal((prec.dimension, 1))
    surface[np.concatenate(components)] = spatial_sd * icar_draws(prec, components, noise)[:, 0]
    order = {rid: k for k, rid in enumerate(prec.node_ids)}
    return {rid: float(expit(base_logit + surface[order[rid]])) for rid in ids}


def sample_survey(truth: SyntheticTruth) -> SurveyDataset:
    """Draw one survey realization from the truth and its sampling plan.

    Per cluster, the local prevalence is a logit-normal perturbation of the
    region truth; individuals fall in a high- or low-risk stratum whose
    mixture preserves the cluster mean, and the high-risk stratum is
    oversampled by the dispersion factor. Weights are inverse inclusion
    probabilities, so the two-point weight distribution undoes the bias.
    """
    truth.validate()
    plan = truth.plan
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([truth.seed, 1])))
    rho = plan.weight_dispersion
    share = plan.high_risk_share
    q_hi = share * rho / (share * rho + (1.0 - share))
    k = plan.households_per_cluster
    regions = sorted(truth.regions, key=lambda b: b.region_id)
    cluster_region: list[int] = []
    cluster_ids: list[str] = []
    weights: list[np.ndarray] = []
    outcomes: list[np.ndarray] = []
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
    records = SurveyTable(
        region=np.repeat(np.array(cluster_region, dtype=np.intp), k),
        cluster=np.repeat(np.arange(len(cluster_ids), dtype=np.intp), k),
        stratum=np.zeros(k * len(cluster_ids), dtype=np.intp),
        weight=np.concatenate(weights),
        outcome=np.concatenate(outcomes).astype(np.int8),
        region_ids=tuple(b.region_id for b in regions),
        cluster_ids=tuple(cluster_ids),
    )
    return SurveyDataset(records=records, regions=regions)


# ---------------------------------------------------------------------------
# Scenario config file
# ---------------------------------------------------------------------------

SCENARIO_FIELDS = (
    "rows",
    "cols",
    "group_breaks",
    "base_logit",
    "spatial_sd",
    "clusters_per_region",
    "households_per_cluster",
    "weight_dispersion",
    "seed",
)


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario config: grid, truth surface and sampling plan."""

    rows: int
    cols: int
    group_breaks: tuple[int, ...]
    base_logit: float
    spatial_sd: float
    clusters_per_region: tuple[int, int]
    households_per_cluster: int
    weight_dispersion: float
    seed: int
    cluster_sd: float = 0.3
    high_risk_share: float = 0.3
    risk_ratio: float = 2.0

    def plan(self) -> SamplingPlan:
        return SamplingPlan(
            clusters_per_region=self.clusters_per_region,
            households_per_cluster=self.households_per_cluster,
            weight_dispersion=self.weight_dispersion,
            cluster_sd=self.cluster_sd,
            high_risk_share=self.high_risk_share,
            risk_ratio=self.risk_ratio,
        )

    def realize(self, seed: int | None = None) -> SyntheticTruth:
        use_seed = self.seed if seed is None else seed
        regions = make_grid_regions(self.rows, self.cols, self.group_breaks)
        prevalence = spatial_truth(regions, self.base_logit, self.spatial_sd, use_seed)
        truth = SyntheticTruth(
            regions=regions,
            true_prevalence=prevalence,
            plan=self.plan(),
            seed=use_seed,
        )
        truth.validate()
        return truth


def _parse_cluster_range(raw: str) -> tuple[int, int]:
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return int(lo), int(hi)
    k = int(raw)
    return k, k


def load_scenario(path: str | Path) -> Scenario:
    """Read a key = value scenario file ('#' lines are comments)."""
    path = Path(path)
    kv: dict[str, str] = {}
    for line in data_lines(path):
        if "=" not in line:
            raise SchemaError(f"{path}: expected 'key = value', got {line.strip()!r}")
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    missing = [f for f in SCENARIO_FIELDS if f not in kv]
    if missing:
        raise SchemaError(f"{path}: missing scenario fields: {', '.join(missing)}")
    try:
        return Scenario(
            rows=int(kv["rows"]),
            cols=int(kv["cols"]),
            group_breaks=tuple(
                int(tok) for tok in kv["group_breaks"].split(",") if tok.strip()
            ),
            base_logit=float(kv["base_logit"]),
            spatial_sd=float(kv["spatial_sd"]),
            clusters_per_region=_parse_cluster_range(kv["clusters_per_region"]),
            households_per_cluster=int(kv["households_per_cluster"]),
            weight_dispersion=float(kv["weight_dispersion"]),
            seed=int(kv["seed"]),
            cluster_sd=float(kv.get("cluster_sd", "0.3")),
            high_risk_share=float(kv.get("high_risk_share", "0.3")),
            risk_ratio=float(kv.get("risk_ratio", "2.0")),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: bad scenario value ({exc})") from None


TRUTH_CSV_COLUMNS = {"region_id": str, "true_prevalence": float}


def write_truth_csv(
    true_prevalence: Mapping[str, float],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    ids = sorted(true_prevalence)
    write_table(path, TRUTH_CSV_COLUMNS, [ids, [true_prevalence[rid] for rid in ids]], metadata)


def read_truth_csv(path: str | Path) -> dict[str, float]:
    return {r["region_id"]: r["true_prevalence"] for r in read_table(path, TRUTH_CSV_COLUMNS)}
