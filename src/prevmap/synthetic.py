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

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

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
        if not 1.0 <= self.weight_dispersion < math.inf:
            raise PrevmapError("weight_dispersion must be finite and >= 1")
        if not 0.0 < self.high_risk_share < 1.0:
            raise PrevmapError("high_risk_share must be in (0, 1)")
        if not self.risk_ratio > 0.0:
            raise PrevmapError("risk_ratio must be > 0")
        if not self.risk_ratio * self.high_risk_share < 1.0:
            raise PrevmapError("risk_ratio * high_risk_share must stay below 1")
        if not 0.0 <= self.cluster_sd < math.inf:
            raise PrevmapError("cluster_sd must be finite and >= 0")


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
    # the exact engine loads scipy's compiled LAPACK and ufunc modules,
    # not the scipy.linalg and scipy.special packages
    from .exact import expit, icar_draws, rcm_components

    if spatial_sd < 0:
        raise PrevmapError("spatial_sd must be >= 0")
    ids = sorted(b.region_id for b in regions)
    if spatial_sd == 0 or len(ids) < 2:
        return {rid: float(expit(base_logit)) for rid in ids}
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

    The generator's stream, region by region in id order: the region's
    cluster count (unless the range is one value), then per cluster one
    normal shock (unless ``cluster_sd`` is 0) and 2k uniforms, the first k
    deciding high-risk membership and the next k the outcomes. The
    arithmetic then runs on (clusters, k) arrays, element by element the
    scalar operations, so a seed gives the same table.
    """
    from .exact import expit, logit

    truth.validate()
    plan = truth.plan
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([truth.seed, 1])))
    rho = plan.weight_dispersion
    share = plan.high_risk_share
    q_hi = share * rho / (share * rho + (1.0 - share))
    k = plan.households_per_cluster
    regions = sorted(truth.regions, key=lambda b: b.region_id)
    counts: list[int] = []
    shocks: list[float] = []
    uniforms: list[np.ndarray] = []
    lo, hi = plan.clusters_per_region
    for _ in regions:
        n_clusters = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        counts.append(n_clusters)
        for _ in range(n_clusters):
            if plan.cluster_sd > 0:
                shocks.append(rng.normal(0.0, plan.cluster_sd))
            uniforms.append(rng.random(2 * k))
    cluster_region = np.repeat(np.arange(len(regions), dtype=np.intp), counts)
    p_c = np.array([truth.true_prevalence[b.region_id] for b in regions])[cluster_region]
    if plan.cluster_sd > 0:
        p_c = expit(logit(p_c) + np.array(shocks))
    p_hi = np.minimum(plan.risk_ratio * p_c, 0.95)
    p_lo = np.minimum(np.maximum((p_c - share * p_hi) / (1.0 - share), 0.0), 1.0)
    u = np.array(uniforms).reshape(len(cluster_region), 2, k)
    is_hi = u[:, 0] < q_hi
    outcome = u[:, 1] < np.where(is_hi, p_hi[:, None], p_lo[:, None])
    cluster_ids = tuple(f"{b.region_id}-c{j:03d}" for b, n in zip(regions, counts)
                        for j in range(n))
    records = SurveyTable(
        region=np.repeat(cluster_region, k),
        cluster=np.repeat(np.arange(len(cluster_ids), dtype=np.intp), k),
        stratum=np.zeros(k * len(cluster_ids), dtype=np.intp),
        weight=np.where(is_hi, 1.0 / rho, 1.0).ravel(),
        outcome=outcome.ravel().astype(np.int8),
        region_ids=tuple(b.region_id for b in regions),
        cluster_ids=cluster_ids,
    )
    return SurveyDataset(records=records, regions=regions)


# ---------------------------------------------------------------------------
# Scenario config file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Parsed scenario config: grid, truth surface and sampling plan.

    Each field is a key of the scenario file; the ones with a default, the
    sampling plan's, may be left out.
    """

    rows: int
    cols: int
    group_breaks: tuple[int, ...]
    base_logit: float
    spatial_sd: float
    clusters_per_region: tuple[int, int]
    households_per_cluster: int
    weight_dispersion: float
    seed: int
    cluster_sd: float = SamplingPlan.cluster_sd
    high_risk_share: float = SamplingPlan.high_risk_share
    risk_ratio: float = SamplingPlan.risk_ratio

    def plan(self) -> SamplingPlan:
        return SamplingPlan(**{f.name: getattr(self, f.name) for f in fields(SamplingPlan)})

    def realize(self, seed: int | None = None) -> SyntheticTruth:
        use_seed = self.seed if seed is None else seed
        if not 0 <= use_seed < 2**64:  # the range SeedSequence takes, and McmcConfig's
            raise PrevmapError(f"seed must be in [0, 2**64), got {use_seed}")
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


# the scenario file's required keys, in the order a missing one is named
SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario) if f.default is MISSING)


def _parse_cluster_range(raw: str) -> tuple[int, int]:
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return int(lo), int(hi)
    k = int(raw)
    return k, k


# how each key's value is read: the field's type, but for the two tuples
_SCENARIO_PARSERS = {
    **get_type_hints(Scenario),
    "group_breaks": lambda raw: tuple(int(tok) for tok in raw.split(",") if tok.strip()),
    "clusters_per_region": _parse_cluster_range,
}


def load_scenario(path: str | Path, digest=None) -> Scenario:
    """Read a key = value scenario file ('#' lines are comments); each key at most once."""
    path = Path(path)
    kv: dict[str, str] = {}
    for line in data_lines(path, digest):
        if "=" not in line:
            raise SchemaError(f"{path}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise SchemaError(f"{path}: scenario key {key!r} given twice")
        kv[key] = value
    unknown = [key for key in kv if key not in _SCENARIO_PARSERS]
    if unknown:
        raise SchemaError(f"{path}: unknown scenario keys: {', '.join(unknown)}")
    missing = [f for f in SCENARIO_FIELDS if f not in kv]
    if missing:
        raise SchemaError(f"{path}: missing scenario fields: {', '.join(missing)}")
    try:
        return Scenario(**{key: _SCENARIO_PARSERS[key](value) for key, value in kv.items()})
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
