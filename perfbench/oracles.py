"""Output checks that count toward a run's failed operations.

Each ``check_*`` returns a list of problems; an empty list means the output
passed. The direct-estimate oracle recomputes the Hajek ratio and the
stratified ultimate-cluster variance with numpy from the generator's own
arrays, so it shares no code with ``prevmap.direct``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a prevmap CSV artifact, skipping '# key: value' header lines."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#") and ln.strip()]
    return list(csv.DictReader(lines))


def digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def check_same_artifacts(first: dict[str, str], again: dict[str, str]) -> list[str]:
    if first == again:
        return []
    changed = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
    return [f"rerun at the same seed changed: {', '.join(changed)}"]


def graph_edge_count(path: Path) -> int:
    for line in path.read_text().splitlines():
        if line.startswith("edges "):
            return int(line.split()[1])
    raise ValueError(f"{path}: no 'edges' line")


def check_grid_edges(path: Path, rows: int, cols: int) -> list[str]:
    want = rows * (cols - 1) + cols * (rows - 1)
    got = graph_edge_count(path)
    return [] if got == want else [f"graph has {got} edges, a {rows}x{cols} grid has {want}"]


def check_posterior(path: Path, region_ids: list[str]) -> list[str]:
    rows = read_csv(path)
    problems = []
    if sorted(r["region_id"] for r in rows) != sorted(region_ids):
        problems.append(f"posterior.csv has {len(rows)} rows for {len(region_ids)} regions")
    for r in rows:
        lo, mid, hi = float(r["prev_q025"]), float(r["prev_mean"]), float(r["prev_q975"])
        if not 0.0 < lo <= mid <= hi < 1.0:
            problems.append(f"posterior {r['region_id']}: q025={lo} mean={mid} q975={hi}")
            break
    return problems


def rmse_ratio(truth: Path, direct: Path, posterior: Path) -> float:
    """RMSE(posterior mean) / RMSE(direct p_hat) against the truth, usable regions."""
    true_p = {r["region_id"]: float(r["true_prevalence"]) for r in read_csv(truth)}
    usable = {
        r["region_id"]: float(r["p_hat"]) for r in read_csv(direct) if r["degenerate"] == "none"
    }
    smooth = {r["region_id"]: float(r["prev_mean"]) for r in read_csv(posterior)}
    ids = sorted(usable)
    t = np.array([true_p[i] for i in ids])
    d = np.array([usable[i] for i in ids])
    s = np.array([smooth[i] for i in ids])
    return float(np.sqrt(np.mean((s - t) ** 2)) / np.sqrt(np.mean((d - t) ** 2)))


# ---------------------------------------------------------------------------
# Direct estimates on generated survey data
# ---------------------------------------------------------------------------


def direct_oracle(npz: Path) -> dict[str, tuple]:
    """region_id -> (n, m_clusters, p_hat, var_p, logit_y, var_logit, flag)."""
    o = np.load(npz)
    ids = [str(x) for x in o["region_ids"]]
    w, y = o["weight"], o["outcome"].astype(float)
    cl = o["record_cluster"]
    cl_region, cl_urban = o["cluster_region"], o["cluster_urban"]
    region = cl_region[cl]
    k = len(ids)
    n = np.bincount(region, minlength=k)
    wsum = np.bincount(region, weights=w, minlength=k)
    p_hat = np.bincount(region, weights=w * y, minlength=k) / wsum
    z = np.bincount(cl, weights=w * (y - p_hat[region]), minlength=len(cl_region))
    stratum = cl_region * 2 + cl_urban  # (region, stratum) code per cluster
    m_h = np.bincount(stratum, minlength=2 * k).astype(float)
    zz_h = np.bincount(stratum, weights=z * z, minlength=2 * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(m_h > 0, m_h / (m_h - 1) * zz_h, 0.0)
        single = ((m_h == 1).reshape(k, 2)).any(axis=1)
        var_p = np.where(single, np.nan, term.reshape(k, 2).sum(axis=1) / wsum**2)
    m = np.bincount(cl_region, minlength=k)
    out = {}
    for i, rid in enumerate(ids):
        p, v = float(p_hat[i]), float(var_p[i])
        if p == 0.0:
            flag = "all_zero"
        elif p == 1.0:
            flag = "all_one"
        elif m[i] < 2 or math.isnan(v):
            flag = "single_cluster"
        else:
            flag = "none"
        if flag == "single_cluster":
            v = float("nan")
        if flag == "none":
            ly, lv = math.log(p / (1.0 - p)), v / (p * (1.0 - p)) ** 2
        else:
            ly = lv = float("nan")
        out[rid] = (int(n[i]), int(m[i]), p, v, ly, lv, flag)
    return out


def check_direct(path: Path, oracle: dict[str, tuple]) -> list[str]:
    rows = read_csv(path)
    problems = []
    if sorted(r["region_id"] for r in rows) != sorted(oracle):
        return [f"direct.csv has {len(rows)} regions, the generator linked {len(oracle)}"]
    for r in rows:
        n, m, p, v, ly, lv, flag = oracle[r["region_id"]]
        got = [float(r[c]) for c in ("p_hat", "var_p", "logit_y", "var_logit")]
        if (int(r["n"]), int(r["m_clusters"]), r["degenerate"]) != (n, m, flag) or not np.allclose(
            got, [p, v, ly, lv], rtol=1e-9, atol=0.0, equal_nan=True
        ):
            problems.append(f"direct.csv row {r} differs from oracle {oracle[r['region_id']]}")
            break
    return problems
