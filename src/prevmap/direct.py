"""Design-based per-region prevalence estimation under multistage cluster sampling.

The point estimate is the Hájek weighted ratio ``sum(w*y) / sum(w)``. Its
variance comes from ultimate-cluster Taylor linearization: with per-cluster
weighted residual totals ``z_c = sum_{k in c} w_k (y_k - p_hat)`` and total
weight ``W``, the estimate over ``m`` clusters is

    var_p = [m / (m - 1)] * sum_c z_c**2 / W**2

(per stratum, summed, when a stratum column is present). The logit-scale
transform uses the delta method: ``var_logit = var_p / (p*(1-p))**2``.

Regions where the transform or the variance is undefined are flagged, never
silently zeroed: ``all_zero`` / ``all_one`` when p_hat hits the boundary,
``single_cluster`` when only one cluster was observed, ``zero_variance`` when
every cluster has the same weighted mean so that var_p is 0 up to the
rounding of its own sums.

Sums run over the columns of a ``SurveyTable`` with ``np.bincount``, in
record order, so every total is the same double a record-by-record loop
would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data_model import (
    IndividualRecord,
    SurveyDataset,
    SurveyTable,
    first_appearance,
    read_table,
    write_table,
)
from .errors import EmptyDatasetError, SchemaError

# degeneracy flags
NONE = "none"
ALL_ZERO = "all_zero"
ALL_ONE = "all_one"
SINGLE_CLUSTER = "single_cluster"
ZERO_VARIANCE = "zero_variance"

DIRECT_CSV_COLUMNS = {
    "region_id": str,
    "n": int,
    "m_clusters": int,
    "p_hat": float,
    "var_p": float,
    "logit_y": float,
    "var_logit": float,
    "degenerate": str,
}


@dataclass(frozen=True)
class DirectEstimate:
    """Per-region design-based prevalence with logit-scale transform."""

    region_id: str
    p_hat: float
    var_p: float
    logit_y: float
    var_logit: float
    n: int
    m_clusters: int
    degenerate: str = NONE

    @property
    def se_p(self) -> float:
        return math.sqrt(self.var_p) if self.var_p >= 0 else float("nan")

    @property
    def likelihood_usable(self) -> bool:
        return self.degenerate == NONE


def _as_table(records: SurveyTable | Sequence[IndividualRecord]) -> SurveyTable:
    if isinstance(records, SurveyTable):
        return records
    return SurveyTable.from_records(records)


def _single_region(table: SurveyTable) -> str:
    """The one region id the table's records use; raise otherwise."""
    present = sorted(rid for rid, n in table.region_counts().items() if n)
    if not present:
        raise EmptyDatasetError("cannot estimate prevalence from zero records")
    if len(present) != 1:
        raise ValueError(f"records span multiple regions: {present}")
    return present[0]


def _weighted_sums(table: SurveyTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per region code: record count, ``sum(w*y)`` and ``sum(w)``."""
    k = len(table.region_ids)
    n = np.bincount(table.region, minlength=k)
    cases = np.bincount(table.region, weights=table.weight * table.outcome, minlength=k)
    weight = np.bincount(table.region, weights=table.weight, minlength=k)
    return n, cases, weight


def _cluster_sums(
    table: SurveyTable, region: np.ndarray, p_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per code of ``region``: the stratum sum of ``m/(m-1) * sum_c z_c**2``
    (NaN when a stratum holds one cluster) and the number of distinct clusters.

    Strata within a region, and clusters within a stratum, are summed in
    order of first appearance, the order a record-by-record pass would take.
    """
    n_strata, n_clusters = len(table.stratum_ids), len(table.cluster_ids)
    group, group_first = first_appearance(region * n_strata + table.stratum)
    unit, unit_first = first_appearance(group * n_clusters + table.cluster)
    z = np.bincount(unit, weights=table.weight * (table.outcome - p_hat[region]))
    unit_group = group[unit_first]
    m = np.bincount(unit_group)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(m >= 2, m / (m - 1) * np.bincount(unit_group, weights=z * z), np.nan)
    var_sum = np.bincount(region[group_first], weights=term, minlength=len(p_hat))
    pairs = np.unique(region[unit_first] * n_clusters + table.cluster[unit_first])
    return var_sum, np.bincount(pairs // n_clusters, minlength=len(p_hat))


def _rounding_level(var_sum: float, n: int, cases: float, weight: float) -> bool:
    """Whether ``var_sum`` of a region of ``n`` records, 0 < p_hat < 1, is no
    more than the rounding error its sums make when every cluster has the
    same weighted mean: ``sqrt(var_sum) <= k * eps * S``, S = sum w*|y - p_hat|,
    eps = ulp(1).

    With u = eps/2 and exact z_c = 0, to first order in u:
    - ``p_hat`` is the quotient of two sums of n non-negative terms, so it is
      within (2n - 1) u p_hat of the exact ratio, which shifts each z_c by
      W_c (2n - 1) u p_hat, and all of them together by (2n - 1) u p_hat W;
    - each term w*(y - p_hat) takes two roundings and a cluster's sum n_c - 1
      more, an error of at most (n_c + 1) u times the cluster's share of S,
      and all clusters together at most (n + 1) u S.
    As y is 0 or 1, S = 2 p_hat (1 - p_hat) W, so sum_c |z_c| <= u S [(n + 1)
    + (2n - 1) / (2 (1 - p_hat))]. And sqrt(var_sum) <= sqrt(2) sum_c |z_c|,
    as m/(m-1) <= 2 and a 2-norm is at most the 1-norm: k >= sqrt(2)/2 times
    the bracket. k = (n + 1) (1 + 1/(1 - p_hat)) is at least sqrt(2) times
    that, room for the second-order terms. At n = 100 and p_hat = 0.5,
    k eps = 6.7e-14, while a real variance has sqrt(var_sum) / S of order
    1/sqrt(n p_hat (1 - p_hat)).
    """
    p_hat = cases / weight
    s = cases * (1.0 - p_hat) + (weight - cases) * p_hat
    k = (n + 1) * (1.0 + 1.0 / (1.0 - p_hat))
    return math.sqrt(var_sum) <= k * math.ulp(1.0) * s


def _estimate(
    region_id: str, n: int, cases: float, weight: float, var_sum: float, m_clusters: int
) -> DirectEstimate:
    p_hat = cases / weight
    if p_hat == 0.0:
        flag = ALL_ZERO
    elif p_hat == 1.0:
        flag = ALL_ONE
    elif m_clusters < 2:
        flag = SINGLE_CLUSTER
    else:
        flag = NONE
    var_p = var_sum / weight**2
    if flag == SINGLE_CLUSTER or math.isnan(var_p):
        var_p = float("nan")
        flag = flag if flag != NONE else SINGLE_CLUSTER
    elif flag == NONE and _rounding_level(var_sum, n, cases, weight):
        flag = ZERO_VARIANCE
    if flag == NONE:
        logit_y, var_logit = logit_transform(p_hat, var_p)
    else:
        logit_y, var_logit = float("nan"), float("nan")
    return DirectEstimate(
        region_id=region_id,
        p_hat=p_hat,
        var_p=var_p,
        logit_y=logit_y,
        var_logit=var_logit,
        n=n,
        m_clusters=m_clusters,
        degenerate=flag,
    )


def _estimates(table: SurveyTable, region_ids: Sequence[str]) -> list[DirectEstimate]:
    """Direct estimates for ``region_ids``, from array sums over the whole table."""
    n, cases, weight = _weighted_sums(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_hat = cases / weight
    var_sum, m_clusters = _cluster_sums(table, table.region, p_hat)
    code = dict(zip(table.region_ids, range(len(table.region_ids))))
    out = []
    for rid in region_ids:
        i = code.get(rid)
        if i is None or not n[i]:
            raise EmptyDatasetError("cannot estimate prevalence from zero records")
        out.append(_estimate(
            rid, int(n[i]), float(cases[i]), float(weight[i]), float(var_sum[i]),
            int(m_clusters[i]),
        ))
    return out


def direct_prevalence(records: SurveyTable | Sequence[IndividualRecord]) -> float:
    """Hájek ratio estimate of prevalence for one region's records."""
    table = _as_table(records)
    i = table.region_ids.index(_single_region(table))
    _, cases, weight = _weighted_sums(table)
    return float(cases[i] / weight[i])


def direct_variance(records: SurveyTable | Sequence[IndividualRecord], p_hat: float) -> float:
    """Ultimate-cluster linearized variance of the Hájek estimate.

    All records are pooled as one region. Returns NaN when any stratum holds
    a single cluster (inestimable); callers flag such regions instead of
    treating the variance as zero.
    """
    table = _as_table(records)
    if not len(table):
        raise EmptyDatasetError("cannot estimate variance from zero records")
    pooled = np.zeros(len(table), dtype=np.intp)
    var_sum, _ = _cluster_sums(table, pooled, np.array([p_hat]))
    total_weight = float(np.bincount(pooled, weights=table.weight)[0])
    return float(var_sum[0]) / total_weight**2


def logit_transform(p_hat: float, var_p: float) -> tuple[float, float]:
    """Logit of p_hat and its delta-method variance.

    Boundary estimates (p_hat of exactly 0 or 1) have no finite logit; the
    transform is withheld and ``(nan, nan)`` returned so the region can be
    model-predicted downstream.
    """
    if not 0.0 < p_hat < 1.0:
        return float("nan"), float("nan")
    logit_y = math.log(p_hat / (1.0 - p_hat))
    var_logit = var_p / (p_hat * (1.0 - p_hat)) ** 2
    return logit_y, var_logit


def estimate_region(
    region_id: str, records: SurveyTable | Sequence[IndividualRecord]
) -> DirectEstimate:
    """The direct estimate of one region's records, reported as ``region_id``."""
    table = _as_table(records)
    (estimate,) = _estimates(table, [_single_region(table)])
    return replace(estimate, region_id=region_id)


def estimate_all(dataset: SurveyDataset) -> list[DirectEstimate]:
    """One DirectEstimate per region, sorted by region_id.

    Per-region degeneracies become flags on the estimate; the batch never
    aborts because of them.
    """
    return _estimates(dataset.records, dataset.region_ids())


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------


def write_direct_csv(
    estimates: Sequence[DirectEstimate],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    columns = [[getattr(e, name) for e in estimates] for name in DIRECT_CSV_COLUMNS]
    write_table(path, DIRECT_CSV_COLUMNS, columns, metadata)


def read_direct_csv(path: str | Path, digest=None) -> list[DirectEstimate]:
    rows = read_table(path, DIRECT_CSV_COLUMNS, digest)
    flags = (NONE, ALL_ZERO, ALL_ONE, SINGLE_CLUSTER, ZERO_VARIANCE)
    for row_no, row in enumerate(rows, 1):
        # any other flag would drop the region's likelihood term without a word
        if row["degenerate"] not in flags:
            raise SchemaError(f"{path}: row {row_no}: unknown degenerate flag "
                              f"{row['degenerate']!r}; expected one of {', '.join(flags)}")
        # a weighted mean of 0/1 outcomes; a NaN one would be drawn at cy="nan"
        if not 0.0 <= row["p_hat"] <= 1.0:
            raise SchemaError(f"{path}: row {row_no}: p_hat must be in [0, 1], got {row['p_hat']!r}")
    return [DirectEstimate(**row) for row in rows]
